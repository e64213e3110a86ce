#include "src/cli/flags.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fsio::cli {
namespace {

bool IsFlagName(const std::string& text) { return text.rfind("--", 0) == 0; }

// The row for `name`: a flag's "--name", or any non-flag argument, which
// goes to the table's positional row. nullptr if there is none.
const Flag* FindFlag(const std::vector<Flag>& flags, const std::string& name) {
  for (const Flag& flag : flags) {
    if (IsFlagName(name) ? flag.name == name : !IsFlagName(flag.name)) {
      return &flag;
    }
  }
  return nullptr;
}

}  // namespace

bool ParseUnsigned(std::string_view text, std::uint64_t max, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (c < '0' || c > '9' || digit > max || value > (max - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || std::isspace(static_cast<unsigned char>(copy[0])) != 0 ||
      end != copy.c_str() + copy.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

namespace internal {

std::string CheckUnsigned(const std::string& flag, std::string_view text, std::uint64_t min,
                          std::uint64_t max, std::uint64_t* out) {
  if (text.empty()) {
    return flag + ": empty value";
  }
  if (text.find_first_not_of("0123456789") != std::string_view::npos) {
    return flag + ": '" + std::string(text) + "' is not an unsigned decimal integer";
  }
  if (!ParseUnsigned(text, max, out)) {
    return flag + " must be at most " + std::to_string(max) + ", got " + std::string(text);
  }
  if (*out < min) {
    return flag + " must be at least " + std::to_string(min) + ", got " + std::string(text);
  }
  return "";
}

}  // namespace internal

Flag Double(const std::string& name, double* target, std::string help) {
  char default_text[32];
  std::snprintf(default_text, sizeof(default_text), "%g", *target);
  return {"--" + name, "X", std::move(help), default_text,
          [flag = "--" + name, target](std::string_view text) {
            if (text.empty()) {
              return flag + ": empty value";
            }
            if (!ParseDouble(text, target)) {
              return flag + ": '" + std::string(text) + "' is not a finite number";
            }
            return std::string();
          }};
}

Flag String(const std::string& name, std::string* target, std::string value_name,
            std::string help) {
  return {"--" + name, std::move(value_name), std::move(help), *target,
          [flag = "--" + name, target](std::string_view text) {
            if (text.empty()) {
              return flag + ": empty value";
            }
            *target = text;
            return std::string();
          }};
}

Flag Switch(const std::string& name, bool* target, std::string help) {
  return {"--" + name, "", std::move(help), "", [target](std::string_view) {
            *target = true;
            return std::string();
          }};
}

Flag UnsignedList(const std::string& name, std::vector<std::uint32_t>* target,
                  std::string help, std::uint32_t min, std::uint32_t max) {
  auto scratch = std::make_shared<std::uint32_t>();
  return internal::ListOf(Unsigned(name, scratch.get(), std::move(help), min, max), scratch,
                          target);
}

Flag Positionals(std::string usage_name, std::vector<std::string>* target, std::string help) {
  return {std::move(usage_name), "", std::move(help), "", [target](std::string_view text) {
            target->emplace_back(text);
            return std::string();
          }};
}

bool ParseArgs(const std::vector<std::string>& args, const std::vector<Flag>& flags,
               bool* help, std::string* error) {
  *help = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      *help = true;
      return true;
    }
    const std::size_t eq = IsFlagName(arg) ? arg.find('=') : std::string::npos;
    const std::string name = arg.substr(0, eq);
    const Flag* flag = FindFlag(flags, name);
    std::string value = arg;
    if (flag == nullptr) {
      *error = IsFlagName(arg) ? "unknown flag '" + name + "'"
                               : "unexpected argument '" + arg + "'";
      return false;
    }
    if (!IsFlagName(arg)) {
      // The whole argument is the value.
    } else if (flag->value_name.empty()) {
      if (eq != std::string::npos) {
        *error = name + ": takes no value";
        return false;
      }
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size() && !IsFlagName(args[i + 1])) {
      value = args[++i];
    } else {
      *error = name + ": missing value";
      return false;
    }
    *error = flag->set(value);
    if (!error->empty()) {
      return false;
    }
  }
  return true;
}

std::string Usage(std::string_view program, std::string_view summary,
                  const std::vector<Flag>& flags) {
  constexpr std::size_t kHelpColumn = 26;
  const std::string indent(kHelpColumn, ' ');
  std::string usage = "usage: " + std::string(program);
  std::string rows;
  auto add_row = [&](std::string left, const std::string& help) {
    left += left.size() + 1 < kHelpColumn ? std::string(kHelpColumn - left.size(), ' ')
                                          : "\n" + indent;
    for (const char c : help) {
      left += c == '\n' ? "\n" + indent : std::string(1, c);
    }
    rows += left + "\n";
  };
  for (const Flag& flag : flags) {
    usage += IsFlagName(flag.name) ? "" : " " + flag.name;
    add_row("  " + flag.name + (flag.value_name.empty() ? "" : "=" + flag.value_name),
            flag.default_text.empty() ? flag.help
                                      : flag.help + " (default " + flag.default_text + ")");
  }
  add_row("  --help", "print this help and exit");
  return usage + " [options]\n" + std::string(summary) + "\n\n" + rows;
}

void Parse(int argc, char** argv, std::string_view program, std::string_view summary,
           const std::vector<Flag>& flags) {
  bool help = false;
  std::string error;
  if (!ParseArgs(std::vector<std::string>(argv + 1, argv + argc), flags, &help, &error)) {
    std::fprintf(stderr, "%s: %s (see --help)\n", std::string(program).c_str(), error.c_str());
    std::exit(2);
  }
  if (help) {
    std::fputs(Usage(program, summary, flags).c_str(), stdout);
    std::exit(0);
  }
}

}  // namespace fsio::cli
