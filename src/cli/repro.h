// One line format for the checkers' replayable counterexamples: fsio_diff
// repros, fsio_model traces and fsio_chaos repros.
//
//   fsio-diff-repro v1          header
//   mode strict                 one "key value" line per setting
//   seed 5
//   ops 2                       "<record>s N", then N record lines
//   op 1 1 9
//   op 3 0 2
//   end
//
// A harness declares its settings once, as a table of Flag rows (flags.h)
// bound to its config, and the same table drives both directions:
// WriteRepro prints each row's current value (the default --help shows),
// and ReadRepro sets each line's value through ParseArgs, so a repro value
// is checked exactly as strictly as the flag's. A record's fields are Flag
// rows too (FormatFields/ReadFields). ReadRepro rejects a wrong header, an
// unknown or repeated key, a line that is not "key value", a record count
// other than N, a missing `end` and text after it. Settings absent from the
// file keep the values bound before the call.
#ifndef FASTSAFE_SRC_CLI_REPRO_H_
#define FASTSAFE_SRC_CLI_REPRO_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cli/flags.h"

namespace fsio::cli {

struct ReproFormat {
  std::string header;          // the first line, e.g. "fsio-diff-repro v1"
  std::vector<Flag> settings;  // valued rows (no Switch or Positionals), one
                               // "key value" line each, in row order
  std::string record;          // "op": an "ops N" line, then N "op ..." lines
};

// Sets one record from its fields (the record line after its keyword);
// returns "" or the error.
using RecordReader = std::function<std::string(const std::vector<std::string>& fields)>;

// The repro text: the header, every setting's current value, and one record
// line per entry of `records` (each the fields after the keyword).
std::string WriteRepro(const ReproFormat& format, const std::vector<std::string>& records);

// Parses `text` in `format`, handing each record's fields to `read_record`.
// Returns false with `*error` naming the line and the fault.
bool ReadRepro(std::string_view text, const ReproFormat& format,
               const RecordReader& read_record, std::string* error);

// Hands `text` to `parse` (a harness's ReadRepro wrapper). On failure prints
// "<program>: bad repro file: <reason>" to stderr and returns false; the
// tools then exit 2. ReadReproFile does the same with the text of the file
// at `path`.
using ReproParser = std::function<bool(const std::string& text, std::string* error)>;
bool ReadReproText(const std::string& text, std::string_view program, const ReproParser& parse);
bool ReadReproFile(const std::string& path, std::string_view program, const ReproParser& parse);

// A record's fields, one per row in order: the first `bare` as the plain
// value, the rest as "name=value".
std::string FormatFields(const std::vector<Flag>& rows, std::size_t bare);
std::string ReadFields(const std::vector<std::string>& fields, const std::vector<Flag>& rows,
                       std::size_t bare);

// A RecordReader that appends each record to *out, its fields set through
// the rows `fields_of(&record)` returns.
template <typename T, typename FieldsOf>
RecordReader AppendRecords(std::vector<T>* out, FieldsOf fields_of, std::size_t bare) {
  return [out, fields_of = std::move(fields_of), bare](const std::vector<std::string>& fields) {
    T record{};
    std::string error = ReadFields(fields, fields_of(&record), bare);
    out->push_back(record);
    return error;
  };
}

// The record lines of `records` for WriteRepro, formatted through the same
// rows.
template <typename T, typename FieldsOf>
std::vector<std::string> FormatRecords(std::vector<T> records, FieldsOf fields_of,
                                       std::size_t bare) {
  std::vector<std::string> lines;
  for (T& record : records) {
    lines.push_back(FormatFields(fields_of(&record), bare));
  }
  return lines;
}

}  // namespace fsio::cli

#endif  // FASTSAFE_SRC_CLI_REPRO_H_
