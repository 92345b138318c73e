#include "core/obs/export.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <variant>
#include <vector>

namespace netclients::obs {

namespace {

// Shortest decimal representation that round-trips through strtod —
// deterministic for a given double, so identical snapshots serialise to
// identical bytes.
std::string fmt_double(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string fmt_u64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string to_json(const Snapshot& snapshot, const ExportOptions& options) {
  std::string out;
  out += "{\n  \"schema\": \"netclients.metrics.v1\",\n";

  out += "  \"counters\": [";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": ";
    append_json_string(out, snapshot.counters[i].first);
    out += ", \"value\": " + fmt_u64(snapshot.counters[i].second) + "}";
  }
  out += snapshot.counters.empty() ? "],\n" : "\n  ],\n";

  out += "  \"gauges\": [";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": ";
    append_json_string(out, snapshot.gauges[i].first);
    out += ", \"value\": " + fmt_double(snapshot.gauges[i].second) + "}";
  }
  out += snapshot.gauges.empty() ? "],\n" : "\n  ],\n";

  out += "  \"histograms\": [";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": ";
    append_json_string(out, h.name);
    out += ", \"count\": " + fmt_u64(h.count);
    out += ", \"sum\": " + fmt_double(h.sum);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) out += ", ";
      out += "{\"le\": ";
      out += b < h.bounds.size() ? fmt_double(h.bounds[b]) : "\"+inf\"";
      out += ", \"count\": " + fmt_u64(h.buckets[b]) + "}";
    }
    out += "]}";
  }
  out += snapshot.histograms.empty() ? "],\n" : "\n  ],\n";

  out += "  \"spans\": [";
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    const SpanSnapshot& s = snapshot.spans[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": ";
    append_json_string(out, s.name);
    out += ", \"count\": " + fmt_u64(s.count);
    if (options.include_timings) {
      out += ", \"total_ms\": " + fmt_double(s.total_ms);
    }
    out += "}";
  }
  out += snapshot.spans.empty() ? "]\n" : "\n  ]\n";

  out += "}\n";
  return out;
}

// ------------------------------------------------------------ JSON parser
//
// Minimal recursive-descent parser for the exporter's own output (plus
// whitespace/field-order tolerance): objects, arrays, strings, numbers.
// Numbers keep their source text so 64-bit counters survive exactly.

namespace {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::monostate, std::string, JsonObject, JsonArray> value;
  std::string number;  // set instead of `value` for numeric literals

  bool is_string() const {
    return std::holds_alternative<std::string>(value);
  }
  bool is_number() const { return !number.empty(); }
  const std::string& str() const { return std::get<std::string>(value); }
  const JsonObject* object() const {
    return std::get_if<JsonObject>(&value);
  }
  const JsonArray* array() const { return std::get_if<JsonArray>(&value); }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse() {
    auto value = parse_value();
    skip_ws();
    if (!value || pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = esc;
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) return std::nullopt;
    ++pos_;  // closing quote
    return out;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      JsonValue v;
      v.value = std::move(*s);
      return v;
    }
    if (c == '{') {
      ++pos_;
      JsonObject obj;
      skip_ws();
      if (consume('}')) {
        JsonValue v;
        v.value = std::move(obj);
        return v;
      }
      while (true) {
        auto key = parse_string();
        if (!key || !consume(':')) return std::nullopt;
        auto value = parse_value();
        if (!value) return std::nullopt;
        obj.emplace(std::move(*key), std::move(*value));
        if (consume(',')) continue;
        if (consume('}')) break;
        return std::nullopt;
      }
      JsonValue v;
      v.value = std::move(obj);
      return v;
    }
    if (c == '[') {
      ++pos_;
      JsonArray array;
      skip_ws();
      if (consume(']')) {
        JsonValue v;
        v.value = std::move(array);
        return v;
      }
      while (true) {
        auto value = parse_value();
        if (!value) return std::nullopt;
        array.push_back(std::move(*value));
        if (consume(',')) continue;
        if (consume(']')) break;
        return std::nullopt;
      }
      JsonValue v;
      v.value = std::move(array);
      return v;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              std::strchr("+-.eE", text_[pos_]))) {
        ++pos_;
      }
      JsonValue v;
      v.number = text_.substr(start, pos_ - start);
      return v;
    }
    return std::nullopt;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::optional<std::uint64_t> as_u64(const JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(v.number.c_str(), &end, 10);
  if (errno != 0 || end != v.number.c_str() + v.number.size()) {
    return std::nullopt;
  }
  return out;
}

std::optional<double> as_double(const JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  char* end = nullptr;
  const double out = std::strtod(v.number.c_str(), &end);
  if (end != v.number.c_str() + v.number.size()) return std::nullopt;
  return out;
}

/// Interprets a parsed document as a Snapshot; returns the first problem
/// found, or an empty string and fills `out`.
std::string interpret(const JsonValue& root, Snapshot* out) {
  const JsonObject* doc = root.object();
  if (!doc) return "top level is not an object";

  const auto schema = doc->find("schema");
  if (schema == doc->end() || !schema->second.is_string()) {
    return "missing \"schema\" string";
  }
  if (schema->second.str() != "netclients.metrics.v1") {
    return "unknown schema version \"" + schema->second.str() + "\"";
  }

  const auto section = [&](const char* name) -> const JsonArray* {
    const auto it = doc->find(name);
    return it == doc->end() ? nullptr : it->second.array();
  };

  const JsonArray* counters = section("counters");
  if (!counters) return "missing \"counters\" array";
  for (const JsonValue& entry : *counters) {
    const JsonObject* obj = entry.object();
    if (!obj) return "counter entry is not an object";
    const auto name = obj->find("name");
    const auto value = obj->find("value");
    if (name == obj->end() || !name->second.is_string() ||
        name->second.str().empty()) {
      return "counter without a name";
    }
    if (value == obj->end() || !as_u64(value->second)) {
      return "counter \"" + name->second.str() + "\" has no integer value";
    }
    out->counters.emplace_back(name->second.str(), *as_u64(value->second));
  }

  const JsonArray* gauges = section("gauges");
  if (!gauges) return "missing \"gauges\" array";
  for (const JsonValue& entry : *gauges) {
    const JsonObject* obj = entry.object();
    if (!obj) return "gauge entry is not an object";
    const auto name = obj->find("name");
    const auto value = obj->find("value");
    if (name == obj->end() || !name->second.is_string() ||
        name->second.str().empty()) {
      return "gauge without a name";
    }
    if (value == obj->end() || !as_double(value->second)) {
      return "gauge \"" + name->second.str() + "\" has no numeric value";
    }
    out->gauges.emplace_back(name->second.str(), *as_double(value->second));
  }

  const JsonArray* histograms = section("histograms");
  if (!histograms) return "missing \"histograms\" array";
  for (const JsonValue& entry : *histograms) {
    const JsonObject* obj = entry.object();
    if (!obj) return "histogram entry is not an object";
    HistogramSnapshot h;
    const auto name = obj->find("name");
    if (name == obj->end() || !name->second.is_string() ||
        name->second.str().empty()) {
      return "histogram without a name";
    }
    h.name = name->second.str();
    const auto count = obj->find("count");
    const auto sum = obj->find("sum");
    const auto buckets = obj->find("buckets");
    if (count == obj->end() || !as_u64(count->second)) {
      return "histogram \"" + h.name + "\" has no integer count";
    }
    if (sum == obj->end() || !as_double(sum->second)) {
      return "histogram \"" + h.name + "\" has no numeric sum";
    }
    if (buckets == obj->end() || !buckets->second.array()) {
      return "histogram \"" + h.name + "\" has no buckets array";
    }
    h.count = *as_u64(count->second);
    h.sum = *as_double(sum->second);
    const JsonArray& bucket_array = *buckets->second.array();
    if (bucket_array.empty()) {
      return "histogram \"" + h.name + "\" has no buckets";
    }
    std::uint64_t bucket_total = 0;
    for (std::size_t b = 0; b < bucket_array.size(); ++b) {
      const JsonObject* bucket = bucket_array[b].object();
      if (!bucket) return "histogram \"" + h.name + "\" bucket not an object";
      const auto le = bucket->find("le");
      const auto bcount = bucket->find("count");
      if (le == bucket->end() || bcount == bucket->end() ||
          !as_u64(bcount->second)) {
        return "histogram \"" + h.name + "\" has a malformed bucket";
      }
      const bool is_last = b + 1 == bucket_array.size();
      if (is_last) {
        if (!le->second.is_string() || le->second.str() != "+inf") {
          return "histogram \"" + h.name + "\" last bucket le != \"+inf\"";
        }
      } else {
        const auto edge = as_double(le->second);
        if (!edge) {
          return "histogram \"" + h.name + "\" bucket le is not numeric";
        }
        if (!h.bounds.empty() && *edge <= h.bounds.back()) {
          return "histogram \"" + h.name + "\" bucket edges not increasing";
        }
        h.bounds.push_back(*edge);
      }
      h.buckets.push_back(*as_u64(bcount->second));
      bucket_total += h.buckets.back();
    }
    if (bucket_total != h.count) {
      return "histogram \"" + h.name + "\" bucket counts do not sum to count";
    }
    out->histograms.push_back(std::move(h));
  }

  const JsonArray* spans = section("spans");
  if (!spans) return "missing \"spans\" array";
  for (const JsonValue& entry : *spans) {
    const JsonObject* obj = entry.object();
    if (!obj) return "span entry is not an object";
    SpanSnapshot s;
    const auto name = obj->find("name");
    const auto count = obj->find("count");
    if (name == obj->end() || !name->second.is_string() ||
        name->second.str().empty()) {
      return "span without a name";
    }
    if (count == obj->end() || !as_u64(count->second)) {
      return "span \"" + name->second.str() + "\" has no integer count";
    }
    s.name = name->second.str();
    s.count = *as_u64(count->second);
    const auto total = obj->find("total_ms");
    if (total != obj->end()) {
      const auto ms = as_double(total->second);
      if (!ms) return "span \"" + s.name + "\" total_ms is not numeric";
      s.total_ms = *ms;
    }
    out->spans.push_back(std::move(s));
  }

  return "";
}

}  // namespace

std::optional<Snapshot> parse_json(const std::string& text) {
  Parser parser(text);
  const auto root = parser.parse();
  if (!root) return std::nullopt;
  Snapshot snapshot;
  if (!interpret(*root, &snapshot).empty()) return std::nullopt;
  return snapshot;
}

std::string validate_metrics_json(const std::string& text) {
  Parser parser(text);
  const auto root = parser.parse();
  if (!root) return "not valid JSON";
  Snapshot snapshot;
  return interpret(*root, &snapshot);
}

bool write_metrics(const std::string& path, const ExportOptions& options,
                   Registry& registry) {
  const std::string body = to_json(registry.snapshot(), options);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "[obs] cannot write metrics to %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "[obs] short write to %s\n", path.c_str());
  }
  return ok;
}

MetricsOutGuard::MetricsOutGuard(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < *argc) {
      path_ = argv[++i];
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      path_ = std::string(arg.substr(std::strlen("--metrics-out=")));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[out] = nullptr;
  if (path_.empty()) {
    if (const char* env = std::getenv("REPRO_METRICS_OUT")) path_ = env;
  }
}

MetricsOutGuard::~MetricsOutGuard() {
  if (!path_.empty()) write_metrics(path_);
}

}  // namespace netclients::obs
