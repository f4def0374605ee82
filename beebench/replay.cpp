#include "replay.h"

#include <stdexcept>
#include <unordered_map>

#include "cluster/registry.h"
#include "core/context.h"

namespace beebench {

using namespace beehive;

LayerCosts replay_layers(const ReplayInputs& in) {
  if (in.app == nullptr || in.requests.empty() || in.cells.empty()) {
    throw std::logic_error("replay needs an app, requests and cells");
  }
  const App& app = *in.app;
  LayerCosts out;

  // Map: every request through its binding's Map function.
  std::vector<const HandlerBinding*> bindings;
  std::vector<CellSet> mapped;
  for (const MessageEnvelope& env : in.requests) {
    const HandlerBinding* b = app.binding_for(env.type());
    if (b == nullptr) throw std::logic_error("replay request has no binding");
    bindings.push_back(b);
    mapped.push_back(b->map(env));
  }
  const std::size_t n = in.requests.size();
  out.map = time_ops(n, [&](std::size_t i) {
    CellSet cells = bindings[i]->map(in.requests[i]);
    if (cells.empty()) throw std::logic_error("replay Map returned nothing");
  });

  // Handler: one store per cell, as each cell lives in its own bee, and
  // the hive's borrowed single-cell policy and reused log scratch.
  std::unordered_map<std::string, std::size_t> cell_index;
  std::vector<StateStore> stores(in.cells.size());
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    cell_index.emplace(in.cells[i].key, i);
    stores[i].dict(in.dict).put(in.cells[i].key, in.cells[i].value);
    out.value_bytes += static_cast<double>(in.cells[i].value.size());
  }
  out.value_bytes /= static_cast<double>(in.cells.size());
  std::vector<std::size_t> store_of(n);
  std::vector<AccessPolicy> policies;
  policies.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = cell_index.find(mapped[i].front().key);
    if (it == cell_index.end()) {
      throw std::logic_error("replay request maps to an unprimed cell " +
                             mapped[i].to_string());
    }
    store_of[i] = it->second;
    policies.push_back(AccessPolicy::cells_view(mapped[i]));
  }
  Txn::Scratch scratch;
  out.handler = time_ops(n, [&](std::size_t i) {
    const MessageEnvelope& env = in.requests[i];
    AppContext ctx(stores[store_of[i]], &policies[i], app.id(), /*bee=*/1,
                   /*hive=*/0, /*now=*/0, env.type(), &scratch);
    bindings[i]->handle(ctx, env);
    ctx.state().commit();
  });

  // Envelope codec on the messages that cross the wire.
  if (!in.wire.empty()) {
    ByteWriter frame;
    ByteWriter payload;
    std::vector<Bytes> encoded;
    for (const MessageEnvelope& env : in.wire) {
      frame.clear();
      env.encode_to(frame, payload);
      encoded.push_back(frame.bytes());
      out.envelope_bytes += static_cast<double>(frame.size());
    }
    out.envelope_bytes /= static_cast<double>(in.wire.size());
    out.encode = time_ops(in.wire.size(), [&](std::size_t i) {
      frame.clear();
      in.wire[i].encode_to(frame, payload);
    });
    out.decode = time_ops(encoded.size(), [&](std::size_t i) {
      MessageEnvelope env = MessageEnvelope::from_wire(encoded[i]);
      if (env.type() != in.wire[i].type()) {
        throw std::logic_error("codec replay changed the message type");
      }
    });
  }

  // Registry-client resolve of the requests' cells against a service of
  // its own; the first pass fills the client cache, the timed passes hit it
  // as the live hives do.
  RegistryService service(2, nullptr);
  RegistryService::Client client(service, 0);
  out.resolve = time_ops(n, [&](std::size_t i) {
    ResolveOutcome r = client.resolve_or_create(app.id(), mapped[i],
                                                app.pinned(), 0);
    if (r.bee == kNoBee) throw std::logic_error("replay resolve failed");
  });

  // Migration payload: one bee's store serialized.
  out.snapshot = time_ops(stores.size() * 20, [&](std::size_t i) {
    Bytes snap = stores[i % stores.size()].snapshot();
    if (snap.empty()) throw std::logic_error("empty snapshot");
  });
  return out;
}

}  // namespace beebench
