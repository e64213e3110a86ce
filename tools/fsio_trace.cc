// fsio_trace: inspector for Chrome trace-event JSON files written by
// fsio_sim --trace (and any other tool using WriteChromeTrace).
//
// Subcommands:
//   fsio_trace validate FILE           structural validation (CI smoke check)
//   fsio_trace summary FILE            per-category event/duration statistics
//   fsio_trace top FILE [--n=N]        the N longest spans (default 10)
//   fsio_trace hist FILE               per-category span-duration histograms
//   fsio_trace filter FILE --cat=PFX   re-emit only categories matching PFX
//
// The parser is a self-contained recursive-descent JSON reader — the tool
// must work on any spec-conformant trace, not just files this repo wrote,
// so it cannot assume our writer's formatting.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/flags.h"

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON model + parser.

struct JsonValue;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;
using JsonObject = std::vector<std::pair<std::string, std::shared_ptr<JsonValue>>>;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject } type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  JsonArray array;
  JsonObject object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return v.get();
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Returns null on malformed input and stores a message in error().
  std::shared_ptr<JsonValue> Parse() {
    auto value = ParseValue();
    if (value == nullptr) {
      return nullptr;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("trailing characters after top-level value");
      return nullptr;
    }
    return value;
  }

  const std::string& error() const { return error_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void Fail(const std::string& what) {
    if (error_.empty()) {
      std::size_t line = 1;
      for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        line += text_[i] == '\n' ? 1 : 0;
      }
      error_ = what + " (line " + std::to_string(line) + ")";
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::shared_ptr<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return nullptr;
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        return ParseNumber();
    }
  }

  std::shared_ptr<JsonValue> ParseObject() {
    auto out = std::make_shared<JsonValue>();
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    if (Consume('}')) {
      return out;
    }
    for (;;) {
      SkipWs();
      auto key = ParseString();
      if (key == nullptr) {
        return nullptr;
      }
      if (!Consume(':')) {
        Fail("expected ':' in object");
        return nullptr;
      }
      auto value = ParseValue();
      if (value == nullptr) {
        return nullptr;
      }
      out->object.emplace_back(key->string, std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return out;
      }
      Fail("expected ',' or '}' in object");
      return nullptr;
    }
  }

  std::shared_ptr<JsonValue> ParseArray() {
    auto out = std::make_shared<JsonValue>();
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    if (Consume(']')) {
      return out;
    }
    for (;;) {
      auto value = ParseValue();
      if (value == nullptr) {
        return nullptr;
      }
      out->array.push_back(std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return out;
      }
      Fail("expected ',' or ']' in array");
      return nullptr;
    }
  }

  std::shared_ptr<JsonValue> ParseString() {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Fail("expected string");
      return nullptr;
    }
    ++pos_;
    auto out = std::make_shared<JsonValue>();
    out->type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // Keep the raw code point textually; enough for inspection.
            unsigned code = 0;
            for (int i = 0; i < 4 && pos_ < text_.size(); ++i) {
              const char h = text_[pos_++];
              code = code * 16 +
                     (h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: c = esc; break;
        }
      }
      out->string += c;
    }
    if (pos_ >= text_.size()) {
      Fail("unterminated string");
      return nullptr;
    }
    ++pos_;  // closing '"'
    return out;
  }

  std::shared_ptr<JsonValue> ParseBool() {
    auto out = std::make_shared<JsonValue>();
    out->type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out->boolean = true;
      pos_ += 4;
      return out;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return out;
    }
    Fail("bad literal");
    return nullptr;
  }

  std::shared_ptr<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return std::make_shared<JsonValue>();
    }
    Fail("bad literal");
    return nullptr;
  }

  std::shared_ptr<JsonValue> ParseNumber() {
    char* end = nullptr;
    const double v = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) {
      Fail("expected value");
      return nullptr;
    }
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    auto out = std::make_shared<JsonValue>();
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Trace model extracted from the JSON.

struct Event {
  char ph = '?';
  std::string cat;
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  const JsonValue* json = nullptr;
};

struct Trace {
  std::vector<Event> events;       // data events (X/i/C/...), metadata excluded
  std::size_t metadata_events = 0;
  std::map<std::uint32_t, std::string> process_names;
};

// Validates one event object; appends a description of the first problem.
bool ValidateEvent(const JsonValue& e, std::size_t index, std::string* error) {
  const auto fail = [&](const std::string& what) {
    *error = "event " + std::to_string(index) + ": " + what;
    return false;
  };
  if (e.type != JsonValue::Type::kObject) {
    return fail("not an object");
  }
  const JsonValue* ph = e.Find("ph");
  if (ph == nullptr || ph->type != JsonValue::Type::kString || ph->string.size() != 1) {
    return fail("missing or malformed \"ph\"");
  }
  const JsonValue* name = e.Find("name");
  if (name == nullptr || name->type != JsonValue::Type::kString) {
    return fail("missing \"name\"");
  }
  if (ph->string[0] == 'M') {
    return true;  // metadata carries name/args only
  }
  const JsonValue* ts = e.Find("ts");
  if (ts == nullptr || ts->type != JsonValue::Type::kNumber || ts->number < 0.0) {
    return fail("missing or negative \"ts\"");
  }
  for (const char* key : {"pid", "tid"}) {
    const JsonValue* v = e.Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kNumber) {
      return fail(std::string("missing numeric \"") + key + "\"");
    }
  }
  if (ph->string[0] == 'X') {
    const JsonValue* dur = e.Find("dur");
    if (dur == nullptr || dur->type != JsonValue::Type::kNumber || dur->number < 0.0) {
      return fail("complete event without non-negative \"dur\"");
    }
  }
  return true;
}

bool LoadTrace(const std::string& path, std::shared_ptr<JsonValue>* root_out,
               Trace* trace, std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  JsonParser parser(text);
  auto root = parser.Parse();
  if (root == nullptr) {
    *error = "JSON parse error: " + parser.error();
    return false;
  }
  if (root->type != JsonValue::Type::kObject) {
    *error = "top level is not an object";
    return false;
  }
  const JsonValue* events = root->Find("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    *error = "missing \"traceEvents\" array";
    return false;
  }
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = *events->array[i];
    if (!ValidateEvent(e, i, error)) {
      return false;
    }
    const char ph = e.Find("ph")->string[0];
    if (ph == 'M') {
      ++trace->metadata_events;
      const JsonValue* pid = e.Find("pid");
      const JsonValue* args = e.Find("args");
      if (e.Find("name")->string == "process_name" && pid != nullptr &&
          args != nullptr) {
        if (const JsonValue* value = args->Find("name"); value != nullptr) {
          trace->process_names[static_cast<std::uint32_t>(pid->number)] = value->string;
        }
      }
      continue;
    }
    Event out;
    out.ph = ph;
    out.name = e.Find("name")->string;
    if (const JsonValue* cat = e.Find("cat"); cat != nullptr) {
      out.cat = cat->string;
    }
    out.ts_us = e.Find("ts")->number;
    if (const JsonValue* dur = e.Find("dur"); dur != nullptr) {
      out.dur_us = dur->number;
    }
    out.pid = static_cast<std::uint32_t>(e.Find("pid")->number);
    out.tid = static_cast<std::uint32_t>(e.Find("tid")->number);
    out.json = &e;
    trace->events.push_back(std::move(out));
  }
  *root_out = std::move(root);
  return true;
}

// ---------------------------------------------------------------------------
// Subcommands.

int CmdValidate(const std::string& path) {
  std::shared_ptr<JsonValue> root;
  Trace trace;
  std::string error;
  if (!LoadTrace(path, &root, &trace, &error)) {
    std::fprintf(stderr, "fsio_trace: INVALID: %s\n", error.c_str());
    return 1;
  }
  std::map<std::string, std::size_t> categories;
  for (const Event& e : trace.events) {
    ++categories[e.cat];
  }
  std::printf("OK: %zu events (%zu metadata), %zu processes, %zu categories\n",
              trace.events.size() + trace.metadata_events, trace.metadata_events,
              trace.process_names.size(), categories.size());
  for (const auto& [cat, count] : categories) {
    std::printf("  %-12s %zu\n", cat.empty() ? "(none)" : cat.c_str(), count);
  }
  return 0;
}

int CmdSummary(const std::string& path) {
  std::shared_ptr<JsonValue> root;
  Trace trace;
  std::string error;
  if (!LoadTrace(path, &root, &trace, &error)) {
    std::fprintf(stderr, "fsio_trace: %s\n", error.c_str());
    return 1;
  }
  struct CatStats {
    std::size_t spans = 0;
    std::size_t instants = 0;
    std::size_t counters = 0;
    double total_dur = 0.0;
    double max_dur = 0.0;
  };
  std::map<std::string, CatStats> stats;
  double t_min = 0.0;
  double t_max = 0.0;
  bool any = false;
  for (const Event& e : trace.events) {
    CatStats& s = stats[e.cat];
    switch (e.ph) {
      case 'X':
        ++s.spans;
        s.total_dur += e.dur_us;
        s.max_dur = std::max(s.max_dur, e.dur_us);
        break;
      case 'i':
      case 'I':
        ++s.instants;
        break;
      case 'C':
        ++s.counters;
        break;
      default:
        break;
    }
    if (!any || e.ts_us < t_min) {
      t_min = e.ts_us;
    }
    t_max = std::max(t_max, e.ts_us + e.dur_us);
    any = true;
  }
  std::printf("%zu events over [%.3f us, %.3f us] across %zu processes\n\n",
              trace.events.size(), t_min, t_max, trace.process_names.size());
  std::printf("%-12s %10s %10s %10s %12s %12s\n", "category", "spans", "instants",
              "counters", "total_us", "max_us");
  for (const auto& [cat, s] : stats) {
    std::printf("%-12s %10zu %10zu %10zu %12.3f %12.3f\n",
                cat.empty() ? "(none)" : cat.c_str(), s.spans, s.instants, s.counters,
                s.total_dur, s.max_dur);
  }
  return 0;
}

int CmdTop(const std::string& path, std::size_t n, const std::string& cat_prefix) {
  std::shared_ptr<JsonValue> root;
  Trace trace;
  std::string error;
  if (!LoadTrace(path, &root, &trace, &error)) {
    std::fprintf(stderr, "fsio_trace: %s\n", error.c_str());
    return 1;
  }
  std::vector<const Event*> spans;
  for (const Event& e : trace.events) {
    if (e.ph == 'X' && e.cat.compare(0, cat_prefix.size(), cat_prefix) == 0) {
      spans.push_back(&e);
    }
  }
  std::stable_sort(spans.begin(), spans.end(), [](const Event* a, const Event* b) {
    if (a->dur_us != b->dur_us) {
      return a->dur_us > b->dur_us;
    }
    return a->ts_us < b->ts_us;  // deterministic tie-break
  });
  if (spans.size() > n) {
    spans.resize(n);
  }
  std::printf("%-12s %-20s %6s %6s %14s %12s\n", "category", "name", "pid", "tid",
              "ts_us", "dur_us");
  for (const Event* e : spans) {
    std::printf("%-12s %-20s %6u %6u %14.3f %12.3f\n",
                e->cat.empty() ? "(none)" : e->cat.c_str(), e->name.c_str(), e->pid,
                e->tid, e->ts_us, e->dur_us);
  }
  return 0;
}

int CmdHist(const std::string& path, const std::string& cat_prefix) {
  std::shared_ptr<JsonValue> root;
  Trace trace;
  std::string error;
  if (!LoadTrace(path, &root, &trace, &error)) {
    std::fprintf(stderr, "fsio_trace: %s\n", error.c_str());
    return 1;
  }
  // Power-of-two duration buckets in nanoseconds, per category.
  constexpr int kBuckets = 24;  // up to ~8.4 ms
  std::map<std::string, std::vector<std::size_t>> hists;
  for (const Event& e : trace.events) {
    if (e.ph != 'X' || e.cat.compare(0, cat_prefix.size(), cat_prefix) != 0) {
      continue;
    }
    auto [it, inserted] = hists.try_emplace(e.cat);
    if (inserted) {
      it->second.assign(kBuckets, 0);
    }
    const double ns = e.dur_us * 1000.0;
    int bucket = 0;
    while (bucket + 1 < kBuckets && static_cast<double>(1ull << (bucket + 1)) <= ns) {
      ++bucket;
    }
    ++it->second[bucket];
  }
  for (const auto& [cat, hist] : hists) {
    std::size_t total = 0;
    std::size_t peak = 0;
    for (const std::size_t c : hist) {
      total += c;
      peak = std::max(peak, c);
    }
    std::printf("%s (%zu spans)\n", cat.empty() ? "(none)" : cat.c_str(), total);
    for (int b = 0; b < kBuckets; ++b) {
      if (hist[b] == 0) {
        continue;
      }
      const int bar =
          peak == 0 ? 0 : static_cast<int>(50.0 * static_cast<double>(hist[b]) /
                                           static_cast<double>(peak));
      std::printf("  %8lluns %8zu |%.*s\n",
                  static_cast<unsigned long long>(1ull << b), hist[b], bar,
                  "##################################################");
    }
  }
  return 0;
}

// Re-serializes one already-validated event object verbatim in structure
// (key order preserved by the parser's object representation).
void WriteJson(std::string* out, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += v.boolean ? "true" : "false";
      break;
    case JsonValue::Type::kNumber: {
      char buf[40];
      if (std::nearbyint(v.number) == v.number && std::fabs(v.number) < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v.number));
      } else {
        std::snprintf(buf, sizeof(buf), "%.6f", v.number);
      }
      *out += buf;
      break;
    }
    case JsonValue::Type::kString:
      *out += '"';
      for (const char c : v.string) {
        switch (c) {
          case '"': *out += "\\\""; break;
          case '\\': *out += "\\\\"; break;
          case '\n': *out += "\\n"; break;
          case '\r': *out += "\\r"; break;
          case '\t': *out += "\\t"; break;
          default: *out += c;
        }
      }
      *out += '"';
      break;
    case JsonValue::Type::kArray: {
      *out += '[';
      bool first = true;
      for (const auto& e : v.array) {
        if (!first) {
          *out += ',';
        }
        first = false;
        WriteJson(out, *e);
      }
      *out += ']';
      break;
    }
    case JsonValue::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, e] : v.object) {
        if (!first) {
          *out += ',';
        }
        first = false;
        *out += '"';
        *out += k;
        *out += "\":";
        WriteJson(out, *e);
      }
      *out += '}';
      break;
    }
  }
}

int CmdFilter(const std::string& path, const std::string& prefix) {
  std::shared_ptr<JsonValue> root;
  Trace trace;
  std::string error;
  if (!LoadTrace(path, &root, &trace, &error)) {
    std::fprintf(stderr, "fsio_trace: %s\n", error.c_str());
    return 1;
  }
  const JsonValue* events = root->Find("traceEvents");
  std::printf("{\"traceEvents\":[");
  bool first = true;
  std::string line;
  for (const auto& e : events->array) {
    const JsonValue* ph = e->Find("ph");
    bool keep = ph != nullptr && ph->string == "M";  // keep lane labels
    if (!keep) {
      const JsonValue* cat = e->Find("cat");
      keep = cat != nullptr &&
             cat->string.compare(0, prefix.size(), prefix) == 0;
    }
    if (!keep) {
      continue;
    }
    line.clear();
    WriteJson(&line, *e);
    std::printf("%s\n%s", first ? "" : ",", line.c_str());
    first = false;
  }
  std::printf("\n],\"displayTimeUnit\":\"ns\"}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace cli = fsio::cli;
  std::vector<std::string> args;
  std::size_t top_n = 10;
  std::string cat_prefix;
  std::string validate_path;
  cli::Parse(argc, argv, "fsio_trace",
             "Inspects Chrome trace-event JSON written by fsio_sim --trace.\n"
             "COMMAND: validate, summary, top, hist (log2 ns span histograms) or filter.",
             {
                 cli::Positionals("COMMAND FILE", &args, "the command, then the trace file"),
                 cli::Unsigned("n", &top_n, "spans listed by 'top'", 1),
                 cli::String("cat", &cat_prefix, "P",
                             "category prefix for 'top', 'hist' and 'filter'"),
                 cli::String("validate", &validate_path, "FILE", "same as 'validate FILE'"),
             });
  if (!validate_path.empty()) {
    args.insert(args.begin(), {"validate", validate_path});
  }
  if (args.size() != 2) {
    std::fprintf(stderr, "fsio_trace: want COMMAND FILE (see --help)\n");
    return 2;
  }
  const std::string& command = args[0];
  const std::string& path = args[1];
  if (command == "validate") {
    return CmdValidate(path);
  }
  if (command == "summary") {
    return CmdSummary(path);
  }
  if (command == "top") {
    return CmdTop(path, top_n, cat_prefix);
  }
  if (command == "hist") {
    return CmdHist(path, cat_prefix);
  }
  if (command == "filter") {
    return CmdFilter(path, cat_prefix);
  }
  std::fprintf(stderr, "fsio_trace: unknown command '%s' (see --help)\n", command.c_str());
  return 2;
}
