#include "src/cli/repro.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace fsio::cli {
namespace {

// A row's key in the file: its flag name without the "--".
std::string Key(const Flag& row) { return row.name.substr(2); }

std::vector<std::string> SplitFields(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> fields;
  for (std::string field; is >> field;) {
    fields.push_back(std::move(field));
  }
  return fields;
}

// Prints why a repro was refused; returns false.
bool BadRepro(std::string_view program, const std::string& error) {
  std::fprintf(stderr, "%s: bad repro file: %s\n", std::string(program).c_str(), error.c_str());
  return false;
}

}  // namespace

std::string WriteRepro(const ReproFormat& format, const std::vector<std::string>& records) {
  std::string text = format.header + "\n";
  for (const Flag& row : format.settings) {
    text += Key(row) + " " + row.default_text + "\n";
  }
  text += format.record + "s " + std::to_string(records.size()) + "\n";
  for (const std::string& record : records) {
    text += format.record + " " + record + "\n";
  }
  return text + "end\n";
}

bool ReadRepro(std::string_view text, const ReproFormat& format,
               const RecordReader& read_record, std::string* error) {
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    lines.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  std::size_t at = 0;  // index of the line being read
  auto fail = [&](const std::string& why) {
    *error = "line " + std::to_string(at + 1) + ": " + why;
    return false;
  };
  if (lines.empty() || lines[0] != format.header) {
    return fail("missing '" + format.header + "' header");
  }

  // Settings, closed by the record count (read as one more setting).
  const std::string count_key = format.record + "s";
  std::uint64_t count = 0;
  std::vector<Flag> rows = format.settings;
  rows.push_back(Unsigned(count_key, &count, ""));
  std::set<std::string> seen;
  for (std::string key; key != count_key;) {
    if (++at == lines.size()) {
      return fail("missing '" + count_key + " N' line");
    }
    const std::vector<std::string> fields = SplitFields(lines[at]);
    if (fields.size() != 2) {
      return fail("want 'key value', got '" + lines[at] + "'");
    }
    key = fields[0];
    if (std::none_of(rows.begin(), rows.end(),
                     [&](const Flag& row) { return Key(row) == key; })) {
      return fail("unknown key '" + key + "'");
    }
    if (!seen.insert(key).second) {
      return fail("repeated key '" + key + "'");
    }
    bool help = false;
    std::string flag_error;
    if (!ParseArgs({"--" + key + "=" + fields[1]}, rows, &help, &flag_error)) {
      return fail(flag_error);
    }
  }

  const std::string want = std::to_string(count) + " " + format.record + " lines";
  for (std::uint64_t i = 0; i < count; ++i) {
    std::vector<std::string> fields;
    if (++at < lines.size()) {
      fields = SplitFields(lines[at]);
    }
    if (fields.empty() || fields[0] != format.record) {
      return fail("want " + want + ", got " + std::to_string(i));
    }
    fields.erase(fields.begin());
    const std::string record_error = read_record(fields);
    if (!record_error.empty()) {
      return fail(record_error);
    }
  }
  if (++at == lines.size()) {
    return fail("missing 'end' after " + want);
  }
  if (lines[at] != "end") {
    return fail("want 'end' after " + want + ", got '" + lines[at] + "'");
  }
  if (++at != lines.size()) {
    return fail("text after 'end'");
  }
  return true;
}

bool ReadReproText(const std::string& text, std::string_view program, const ReproParser& parse) {
  std::string error;
  return parse(text, &error) || BadRepro(program, error);
}

bool ReadReproFile(const std::string& path, std::string_view program, const ReproParser& parse) {
  std::ifstream in(path);
  if (!in) {
    return BadRepro(program, "cannot open " + path);
  }
  std::stringstream text;
  text << in.rdbuf();
  return ReadReproText(text.str(), program, parse);
}

std::string FormatFields(const std::vector<Flag>& rows, std::size_t bare) {
  std::string text;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      text += ' ';
    }
    if (i >= bare) {
      text += Key(rows[i]) + "=";
    }
    text += rows[i].default_text;
  }
  return text;
}

std::string ReadFields(const std::vector<std::string>& fields, const std::vector<Flag>& rows,
                       std::size_t bare) {
  if (fields.size() != rows.size()) {
    return "want " + std::to_string(rows.size()) + " fields, got " +
           std::to_string(fields.size());
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string_view value = fields[i];
    if (i >= bare) {
      const std::string prefix = Key(rows[i]) + "=";
      if (value.substr(0, prefix.size()) != prefix) {
        return "want '" + prefix + "...', got '" + fields[i] + "'";
      }
      value.remove_prefix(prefix.size());
    }
    std::string error = rows[i].set(value);
    if (!error.empty()) {
      return error;
    }
  }
  return "";
}

}  // namespace fsio::cli
