// Strict command-line flags shared by every tool.
//
// A tool declares its flags once, as a table of Flag rows bound to the
// fields of its options struct, and hands argv to Parse():
//
//   Options o;
//   cli::Parse(argc, argv, "fsio_sim", "Runs one simulated experiment.",
//              {cli::Unsigned("flows", &o.flows, "iperf flows", 1),
//               cli::Switch("csv", &o.csv, "CSV output")});
//
// Every valued flag takes `--name=value` or `--name value`; a repeated flag
// overwrites the earlier value (lists are replaced, not appended). An empty
// value, a sign or trailing characters on a number, overflow of the target
// type, a value out of range, an unknown flag or a missing value prints
// "<tool>: <message naming the flag>" and exits 2. `--help` prints the usage
// generated from the table and exits 0.
#ifndef FASTSAFE_SRC_CLI_FLAGS_H_
#define FASTSAFE_SRC_CLI_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fsio::cli {

// Decimal digits only — no sign, whitespace or trailing characters — with no
// overflow past `max`.
bool ParseUnsigned(std::string_view text, std::uint64_t max, std::uint64_t* out);

template <typename T>
bool ParseUnsigned(std::string_view text, T* out) {
  std::uint64_t value = 0;
  if (!ParseUnsigned(text, std::numeric_limits<T>::max(), &value)) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// A finite double with nothing left over (no leading whitespace, no nan/inf).
bool ParseDouble(std::string_view text, double* out);

struct Flag {
  std::string name;        // "--flows"; a positional's usage name ("PATH...")
  std::string value_name;  // "N", "FILE", ...; empty for a switch
  std::string help;        // may span lines
  std::string default_text;
  // Stores `value` into the bound field; returns an error message naming
  // the flag, or "" on success.
  std::function<std::string(std::string_view value)> set;
};

// Token -> value pairs for a one-of flag. Several tokens may share a value
// (aliases); --help and error messages list the first token of each value.
template <typename T>
using Choices = std::vector<std::pair<std::string, T>>;

namespace internal {

// "" if `text` is an unsigned integer in [min, max] (stored in *out), else
// the error naming `flag`.
std::string CheckUnsigned(const std::string& flag, std::string_view text, std::uint64_t min,
                          std::uint64_t max, std::uint64_t* out);

// Turns `element` (bound to *scratch) into a comma-separated list flag
// that collects into *target.
template <typename T>
Flag ListOf(Flag element, std::shared_ptr<T> scratch, std::vector<T>* target) {
  element.value_name = "LIST";
  element.default_text.clear();
  element.set = [name = element.name, set_one = std::move(element.set), scratch,
                 target](std::string_view text) {
    if (text.empty()) {
      return name + ": empty value";
    }
    std::vector<T> values;
    for (std::size_t begin = 0; begin <= text.size();) {
      const std::size_t end = std::min(text.find(',', begin), text.size());
      if (end == begin) {
        return name + ": empty element in '" + std::string(text) + "'";
      }
      std::string error = set_one(text.substr(begin, end - begin));
      if (!error.empty()) {
        return error;
      }
      values.push_back(*scratch);
      begin = end + 1;
    }
    *target = std::move(values);
    return std::string();
  };
  return element;
}

}  // namespace internal

// An unsigned integer within [min, max], and within T's width.
template <typename T>
Flag Unsigned(const std::string& name, T* target, std::string help, std::uint64_t min = 0,
              std::uint64_t max = std::numeric_limits<T>::max()) {
  max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
  return {"--" + name, "N", std::move(help), std::to_string(*target),
          [flag = "--" + name, target, min, max](std::string_view text) {
            std::uint64_t value = 0;
            std::string error = internal::CheckUnsigned(flag, text, min, max, &value);
            if (error.empty()) {
              *target = static_cast<T>(value);
            }
            return error;
          }};
}

// A finite double.
Flag Double(const std::string& name, double* target, std::string help);

// Any non-empty string.
Flag String(const std::string& name, std::string* target, std::string value_name,
            std::string help);

// Presence sets *target to true; `--name=value` is an error.
Flag Switch(const std::string& name, bool* target, std::string help);

// Exactly one of `choices`' tokens.
template <typename T>
Flag OneOf(const std::string& name, T* target, Choices<T> choices, std::string value_name,
           std::string help) {
  std::string listed;  // " tok1 tok2 ...", one token per distinct value
  std::string default_text;
  help += "\none of:";
  for (auto it = choices.begin(); it != choices.end(); ++it) {
    if (std::none_of(choices.begin(), it, [&](const auto& c) { return c.second == it->second; })) {
      listed += " " + it->first;
      help += (help.size() - help.rfind('\n') > 50 ? "\n" : " ") + it->first;  // wrap
      default_text = it->second == *target ? it->first : default_text;
    }
  }
  return {"--" + name, std::move(value_name), std::move(help), std::move(default_text),
          [flag = "--" + name, target, choices = std::move(choices),
           listed = std::move(listed)](std::string_view text) {
            for (const auto& [token, value] : choices) {
              if (token == text) {
                *target = value;
                return std::string();
              }
            }
            return flag + ": " +
                   (text.empty() ? "empty value" : "unknown value '" + std::string(text) + "'") +
                   " (one of:" + listed + ")";
          }};
}

// Comma-separated unsigned integers, each within [min, max].
Flag UnsignedList(const std::string& name, std::vector<std::uint32_t>* target,
                  std::string help, std::uint32_t min = 0,
                  std::uint32_t max = std::numeric_limits<std::uint32_t>::max());

// Comma-separated tokens of `choices`.
template <typename T>
Flag OneOfList(const std::string& name, std::vector<T>* target, Choices<T> choices,
               std::string help) {
  auto scratch = std::make_shared<T>();
  return internal::ListOf(
      OneOf(name, scratch.get(), std::move(choices), "LIST", std::move(help)), scratch, target);
}

// Collects every non-flag argument, in order. At most one per table.
Flag Positionals(std::string usage_name, std::vector<std::string>* target, std::string help);

// Parses `args` (argv without the program name) against `flags`. Returns
// false with `*error` naming the offending flag or argument; sets `*help`
// (and stops) on --help or -h.
bool ParseArgs(const std::vector<std::string>& args, const std::vector<Flag>& flags,
               bool* help, std::string* error);

// The --help text generated from `flags`.
std::string Usage(std::string_view program, std::string_view summary,
                  const std::vector<Flag>& flags);

// ParseArgs on argv; prints the usage to stdout and exits 0 on --help, prints
// "<program>: <error>" to stderr and exits 2 on an error.
void Parse(int argc, char** argv, std::string_view program, std::string_view summary,
           const std::vector<Flag>& flags);

}  // namespace fsio::cli

#endif  // FASTSAFE_SRC_CLI_FLAGS_H_
