#include "apps/host_location.h"

#include "core/context.h"
#include "msg/registry.h"

namespace beehive {

HostLocationApp::HostLocationApp(std::size_t n_buckets)
    : App("seattle.host_location") {
  auto& reg = MsgTypeRegistry::instance();
  reg.ensure<HostRegister>();
  reg.ensure<HostUnregister>();
  reg.ensure<HostLookup>();
  reg.ensure<HostLocation>();
  const std::string dict(kDict);

  on<HostRegister>(
      [dict, n_buckets](const HostRegister& m) {
        return CellSet::single(dict, bucket_key(m.mac, n_buckets));
      },
      [dict, n_buckets](AppContext& ctx, const HostRegister& m) {
        const std::string key = bucket_key(m.mac, n_buckets);
        HostBucket bucket =
            ctx.state().get_as<HostBucket>(dict, key).value_or(HostBucket{});
        bucket.upsert(m.mac, m.sw, m.port);
        ctx.state().put_as(dict, key, std::move(bucket));
      });

  on<HostUnregister>(
      [dict, n_buckets](const HostUnregister& m) {
        return CellSet::single(dict, bucket_key(m.mac, n_buckets));
      },
      [dict, n_buckets](AppContext& ctx, const HostUnregister& m) {
        const std::string key = bucket_key(m.mac, n_buckets);
        auto bucket = ctx.state().get_as<HostBucket>(dict, key);
        if (!bucket) return;
        if (bucket->remove(m.mac)) {
          ctx.state().put_as(dict, key, std::move(*bucket));
        }
      });

  on<HostLookup>(
      [dict, n_buckets](const HostLookup& m) {
        return CellSet::single(dict, bucket_key(m.mac, n_buckets));
      },
      [dict, n_buckets](AppContext& ctx, const HostLookup& m) {
        const std::string key = bucket_key(m.mac, n_buckets);
        auto bucket = ctx.state().get_as<HostBucket>(dict, key);
        HostLocation reply;
        reply.query_id = m.query_id;
        reply.mac = m.mac;
        if (bucket) {
          if (const HostBucket::Entry* e = bucket->find(m.mac)) {
            reply.found = true;
            reply.sw = e->sw;
            reply.port = e->port;
          }
        }
        ctx.emit(std::move(reply));
      });
}

}  // namespace beehive
