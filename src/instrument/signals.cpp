#include "instrument/signals.h"

#include <cstdio>

namespace beehive {

std::string format_signal(SignalKind kind, double v) {
  switch (kind) {
    case SignalKind::kCount:
      return std::to_string(static_cast<std::uint64_t>(v));
    case SignalKind::kSigned:
      return std::to_string(static_cast<std::int64_t>(v));
    case SignalKind::kRatio: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", v);
      return buf;
    }
    case SignalKind::kFlag:
      return v != 0.0 ? "true" : "false";
  }
  return "0";
}

void encode_signals(ByteWriter& w, const HiveSignals& s) {
  for (const HiveSignal& row : kHiveSignals) {
    const double v = s.*row.field;
    switch (row.kind) {
      case SignalKind::kCount:
        w.varint(static_cast<std::uint64_t>(v));
        break;
      case SignalKind::kSigned: {
        const auto i = static_cast<std::int64_t>(v);
        w.varint((static_cast<std::uint64_t>(i) << 1) ^
                 static_cast<std::uint64_t>(i >> 63));
        break;
      }
      case SignalKind::kRatio:
        w.f64(v);
        break;
      case SignalKind::kFlag:
        w.boolean(v != 0.0);
        break;
    }
  }
}

HiveSignals decode_signals(ByteReader& r) {
  HiveSignals s;
  for (const HiveSignal& row : kHiveSignals) {
    double& v = s.*row.field;
    switch (row.kind) {
      case SignalKind::kCount:
        v = static_cast<double>(r.varint());
        break;
      case SignalKind::kSigned: {
        const std::uint64_t z = r.varint();
        v = static_cast<double>(static_cast<std::int64_t>(z >> 1) ^
                                -static_cast<std::int64_t>(z & 1));
        break;
      }
      case SignalKind::kRatio:
        v = r.f64();
        break;
      case SignalKind::kFlag:
        v = r.boolean() ? 1.0 : 0.0;
        break;
    }
  }
  return s;
}

void append_signals_json(std::string& out, const HiveSignals& s) {
  for (const HiveSignal& row : kHiveSignals) {
    out += ", \"";
    out += row.key;
    out += "\": ";
    out += format_signal(row.kind, s.*row.field);
  }
}

void append_signals_text(std::string& out, const HiveSignals& s) {
  for (const HiveSignal& row : kHiveSignals) {
    out += ' ';
    out += row.key;
    out += '=';
    out += format_signal(row.kind, s.*row.field);
  }
}

}  // namespace beehive
