#include "obs/export.h"

#include "common/isd_as.h"
#include "common/strings.h"

namespace sciera::obs {
namespace {

// Escapes per the Prometheus exposition rules for label values (also a
// valid JSON string body for the characters we emit).
std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

// {label="value",...} with an optional extra label appended (used for the
// histogram "le" label). Empty label sets render as nothing.
std::string label_block(const Labels& labels, std::string_view extra_key = {},
                        std::string_view extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += std::string{extra_key} + "=\"" + std::string{extra_value} + "\"";
  }
  out += "}";
  return out;
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += escape(k);
    out += "\":\"";
    out += escape(v);
    out += '"';
  }
  out += "}";
  return out;
}

// The interned text `id` names; an id the table does not hold renders
// as empty text.
const std::string& text_of(const std::vector<std::string>& texts,
                           std::uint64_t id) {
  static const std::string kEmpty;
  return id < texts.size() ? texts[static_cast<std::size_t>(id)] : kEmpty;
}

// Renders an event's detail: the one place a detail code becomes text.
void render_detail(const TraceEvent& event,
                   const std::vector<std::string>& texts, std::string& out) {
  out.clear();
  const auto lookup = [&](const char* verdict) {
    IsdAs::from_packed(event.arg).append_to(out);
    out += ' ';
    out += verdict;
  };
  switch (event.detail) {
    case TraceDetail::kNone: return;
    case TraceDetail::kText: out = text_of(texts, event.arg); return;
    case TraceDetail::kEgress:
      out = strformat("egress=%llu", static_cast<unsigned long long>(event.arg));
      return;
    case TraceDetail::kLookupHit: return lookup("hit");
    case TraceDetail::kLookupMiss: return lookup("miss");
    case TraceDetail::kLookupDropped: return lookup("dropped");
    case TraceDetail::kLookupStale: return lookup("stale");
    case TraceDetail::kLookupEmpty: return lookup("empty");
    case TraceDetail::kProbeTick:
      out = strformat("tick=%lld pairs=%llu", static_cast<long long>(event.arg),
                      static_cast<unsigned long long>(event.arg2));
      return;
    case TraceDetail::kCutInFlight: out = "cut-in-flight"; return;
    case TraceDetail::kLinkUp: out = "up"; return;
    case TraceDetail::kLinkDown: out = "down"; return;
    case TraceDetail::kRouterCrash: out = "router crash"; return;
    case TraceDetail::kServiceUp: out = "service up"; return;
    case TraceDetail::kServiceOutage: out = "service outage"; return;
    case TraceDetail::kBeaconingSweep: out = "beaconing sweep"; return;
    case TraceDetail::kHealingSweep: out = "healing sweep"; return;
  }
}

}  // namespace

std::string export_text(const MetricsRegistry& registry) {
  const auto samples = registry.snapshot();
  std::string out;
  std::string current_family;
  for (const auto& sample : samples) {
    if (sample.name != current_family) {
      current_family = sample.name;
      out += "# TYPE " + sample.name + " " +
             metric_type_name(sample.type) + "\n";
    }
    switch (sample.type) {
      case MetricType::kCounter:
        out += sample.name + label_block(sample.labels) +
               strformat(" %llu\n",
                         static_cast<unsigned long long>(sample.counter_value));
        break;
      case MetricType::kGauge:
        out += sample.name + label_block(sample.labels) +
               strformat(" %lld\n",
                         static_cast<long long>(sample.gauge_value));
        break;
      case MetricType::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < sample.bounds.size(); ++i) {
          cumulative += sample.buckets[i];
          out += sample.name + "_bucket" +
                 label_block(sample.labels, "le",
                             std::to_string(sample.bounds[i])) +
                 strformat(" %llu\n",
                           static_cast<unsigned long long>(cumulative));
        }
        cumulative += sample.buckets.empty() ? 0 : sample.buckets.back();
        out += sample.name + "_bucket" +
               label_block(sample.labels, "le", "+Inf") +
               strformat(" %llu\n",
                         static_cast<unsigned long long>(cumulative));
        out += sample.name + "_sum" + label_block(sample.labels) +
               strformat(" %lld\n", static_cast<long long>(sample.sum));
        out += sample.name + "_count" + label_block(sample.labels) +
               strformat(" %llu\n",
                         static_cast<unsigned long long>(sample.count));
        break;
      }
    }
  }
  return out;
}

std::string export_json(const MetricsRegistry& registry) {
  const auto samples = registry.snapshot();
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& sample : samples) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + escape(sample.name) + "\",\"type\":\"" +
           metric_type_name(sample.type) + "\",\"labels\":" +
           json_labels(sample.labels);
    switch (sample.type) {
      case MetricType::kCounter:
        out += strformat(",\"value\":%llu",
                         static_cast<unsigned long long>(sample.counter_value));
        break;
      case MetricType::kGauge:
        out += strformat(",\"value\":%lld",
                         static_cast<long long>(sample.gauge_value));
        break;
      case MetricType::kHistogram: {
        out += ",\"bounds\":[";
        for (std::size_t i = 0; i < sample.bounds.size(); ++i) {
          if (i != 0) out += ",";
          out += std::to_string(sample.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
          if (i != 0) out += ",";
          out += std::to_string(sample.buckets[i]);
        }
        out += strformat("],\"sum\":%lld,\"count\":%llu",
                         static_cast<long long>(sample.sum),
                         static_cast<unsigned long long>(sample.count));
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string export_trace_text(const FlightRecorder& recorder) {
  std::string out = strformat(
      "# flight recorder: %llu recorded, %llu overwritten, capacity %zu\n",
      static_cast<unsigned long long>(recorder.recorded()),
      static_cast<unsigned long long>(recorder.overwritten()),
      recorder.capacity());
  const std::vector<TraceEvent> events = recorder.snapshot();
  const std::vector<std::string>& texts = recorder.texts();
  std::string detail;
  for (const auto& event : events) {
    render_detail(event, texts, detail);
    out += strformat("%08llu t=%lld %s %s",
                     static_cast<unsigned long long>(event.seq),
                     static_cast<long long>(event.time),
                     trace_type_name(event.type),
                     text_of(texts, event.subject).c_str());
    if (!detail.empty()) out += " " + detail;
    if (event.value != 0) {
      out += strformat(" v=%lld", static_cast<long long>(event.value));
    }
    out += "\n";
  }
  return out;
}

std::string export_trace_json(const FlightRecorder& recorder) {
  std::string out = strformat(
      "{\"recorded\":%llu,\"overwritten\":%llu,\"events\":[",
      static_cast<unsigned long long>(recorder.recorded()),
      static_cast<unsigned long long>(recorder.overwritten()));
  const std::vector<TraceEvent> events = recorder.snapshot();
  const std::vector<std::string>& texts = recorder.texts();
  std::string detail;
  bool first = true;
  for (const auto& event : events) {
    if (!first) out += ",";
    first = false;
    render_detail(event, texts, detail);
    out += strformat(
        "{\"seq\":%llu,\"time\":%lld,\"type\":\"%s\",\"subject\":\"%s\","
        "\"detail\":\"%s\",\"value\":%lld}",
        static_cast<unsigned long long>(event.seq),
        static_cast<long long>(event.time), trace_type_name(event.type),
        escape(text_of(texts, event.subject)).c_str(), escape(detail).c_str(),
        static_cast<long long>(event.value));
  }
  out += "]}";
  return out;
}

}  // namespace sciera::obs
