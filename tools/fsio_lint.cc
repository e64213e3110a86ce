// fsio_lint: repo-specific static checks the compiler cannot express.
//
// Usage:
//   fsio_lint [--rules=r1,r2] [--scope=src|tests|tools|bench|examples]
//             [--list-rules] PATH...
//
// PATHs are files or directories (searched recursively for C++ sources),
// resolved relative to the working directory, which must be the repo root so
// rule scoping and include-guard expectations line up. Directories skip
// build*/ trees and the deliberately-dirty lint fixtures under tests/lint/;
// naming a fixture file explicitly lints it anyway (that is how
// run_lint_fixtures_check.cmake proves each rule fires).
//
// Rules (see DESIGN.md §9 for the rationale table):
//   raw-mutex        std::mutex/lock_guard/... anywhere but src/simcore/sync.h
//   wall-clock       sleep/wall-clock time in src/ (breaks determinism)
//   dma-pairing      gtest bodies that Map* DMA pages but never Unmap/Release,
//                    plus flow-sensitive early-return leak detection
//   discarded-fault-decision  FaultInjector::Sample() result dropped on the floor
//   stale-mode-count hardcoded protection-mode counts outside the mode table
//   raw-domain-id    domain ids flow as fsio::DomainId, never bare uint32_t
//   unchecked-descriptor-enqueue  NIC feeders in src/ wire the capability gate
//   include-guard    headers must carry FASTSAFE_<PATH>_H_ guards
//   include-hygiene  quoted includes repo-root-relative; never include a .cc
//
// Suppressions: `// fsio-lint: allow(rule-id)` on the offending line (for
// dma-pairing: anywhere in the test body), `// fsio-lint: file-allow(rule-id)`
// anywhere in the file. Every suppression should carry a justification.
//
// Diagnostics are `file:line: rule-id: message`, one per line; the exit code
// is non-zero iff any violation was reported. Like fsio_trace, the tool is
// self-contained: it links the flag parser (src/cli/) and no simulator
// library.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/flags.h"

namespace {

namespace fs = std::filesystem;

struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// One parsed source file: raw lines for lexical rules (includes, guards,
// directives) and a "code view" with comments and string/char literals
// blanked so token rules never fire on prose or quoted text.
struct SourceFile {
  std::string path;   // repo-relative, forward slashes (display + scoping)
  std::string scope;  // first path component: src, tests, tools, bench, ...
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::set<std::string> file_allows;
  std::map<std::size_t, std::set<std::string>> line_allows;  // 1-based line
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Splits `text` into lines (tolerating a missing trailing newline).
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    lines.push_back(current);
  }
  return lines;
}

// Returns the length of the raw-string prefix (R, uR, UR, LR, u8R) ending
// immediately before the quote at `quote`, or 0 if the quote does not open a
// raw string. An identifier that merely *ends* in one of those spellings
// (`FSIO_HDR"text"`, macro/string concatenation) is not a prefix: the
// character before the prefix must not be an identifier character.
std::size_t RawStringPrefixLen(const std::string& line, std::size_t quote) {
  if (quote == 0 || line[quote - 1] != 'R') {
    return 0;
  }
  std::size_t start = quote - 1;  // index of the 'R'
  if (start >= 2 && line[start - 2] == 'u' && line[start - 1] == '8') {
    start -= 2;  // u8R"..."
  } else if (start >= 1 && (line[start - 1] == 'u' || line[start - 1] == 'U' ||
                            line[start - 1] == 'L')) {
    start -= 1;  // uR"..." / UR"..." / LR"..."
  }
  if (start > 0 && IsIdentChar(line[start - 1])) {
    return 0;
  }
  return quote - start;
}

// Builds the code view: comments and string/char literal *contents* become
// spaces, everything else (including line structure) is preserved.
std::vector<std::string> BuildCodeView(const std::vector<std::string>& raw) {
  std::vector<std::string> code = raw;
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // raw-string delimiter, e.g. )foo"
  for (std::size_t li = 0; li < code.size(); ++li) {
    std::string& line = code[li];
    for (std::size_t i = 0; i < line.size(); ++i) {
      switch (state) {
        case State::kCode: {
          const char c = line[i];
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
            for (std::size_t j = i; j < line.size(); ++j) {
              line[j] = ' ';
            }
            i = line.size();
          } else if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
            line[i] = ' ';
            line[i + 1] = ' ';
            ++i;
            state = State::kBlockComment;
          } else if (c == '"' && RawStringPrefixLen(line, i) > 0) {
            // Raw string literal R"delim( ... )delim" (also u8R/uR/UR/LR).
            const std::size_t open = line.find('(', i + 1);
            const std::string delim =
                open == std::string::npos ? "" : line.substr(i + 1, open - i - 1);
            // The d-char-seq is at most 16 chars and cannot contain spaces,
            // quotes, backslashes, or parens. Anything else is not a valid
            // raw-string opener: fall back to the ordinary-string state so
            // the contents are still blanked instead of leaking as code.
            if (open == std::string::npos || delim.size() > 16 ||
                delim.find_first_of(" \t\"\\)") != std::string::npos) {
              state = State::kString;
            } else {
              raw_delim = ")" + delim + "\"";
              for (std::size_t j = i; j <= open; ++j) {
                line[j] = ' ';
              }
              i = open;
              state = State::kRawString;
            }
          } else if (c == '"') {
            state = State::kString;
          } else if (c == '\'') {
            state = State::kChar;
          }
          break;
        }
        case State::kBlockComment:
          if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            line[i] = ' ';
            line[i + 1] = ' ';
            ++i;
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        case State::kString:
          if (line[i] == '\\') {
            line[i] = ' ';
            if (i + 1 < line.size()) {
              line[i + 1] = ' ';
              ++i;
            }
          } else if (line[i] == '"') {
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        case State::kChar:
          if (line[i] == '\\') {
            line[i] = ' ';
            if (i + 1 < line.size()) {
              line[i + 1] = ' ';
              ++i;
            }
          } else if (line[i] == '\'') {
            state = State::kCode;
          } else {
            line[i] = ' ';
          }
          break;
        case State::kRawString: {
          const std::size_t end = line.find(raw_delim, i);
          if (end == std::string::npos) {
            for (std::size_t j = i; j < line.size(); ++j) {
              line[j] = ' ';
            }
            i = line.size();
          } else {
            for (std::size_t j = i; j < end + raw_delim.size(); ++j) {
              line[j] = ' ';
            }
            i = end + raw_delim.size() - 1;
            state = State::kCode;
          }
          break;
        }
      }
    }
    // Line comments and unterminated string states reset per construct; a
    // string literal cannot span lines without continuation, treat as closed.
    if (state == State::kString || state == State::kChar) {
      state = State::kCode;
    }
  }
  return code;
}

// Parses `fsio-lint: allow(a, b)` / `fsio-lint: file-allow(a)` directives.
void ParseDirectives(SourceFile* file) {
  for (std::size_t li = 0; li < file->raw.size(); ++li) {
    const std::string& line = file->raw[li];
    std::size_t pos = line.find("fsio-lint:");
    while (pos != std::string::npos) {
      const std::size_t open = line.find('(', pos);
      if (open == std::string::npos) {
        break;
      }
      const std::size_t close = line.find(')', open);
      if (close == std::string::npos) {
        break;
      }
      const std::string verb = line.substr(pos + std::strlen("fsio-lint:"),
                                           open - pos - std::strlen("fsio-lint:"));
      std::string rules = line.substr(open + 1, close - open - 1);
      std::stringstream ss(rules);
      std::string rule;
      const bool file_wide = verb.find("file-allow") != std::string::npos;
      const bool line_wide = !file_wide && verb.find("allow") != std::string::npos;
      while (std::getline(ss, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(),
                                  [](char c) { return std::isspace(static_cast<unsigned char>(c)); }),
                   rule.end());
        if (rule.empty()) {
          continue;
        }
        if (file_wide) {
          file->file_allows.insert(rule);
        } else if (line_wide) {
          file->line_allows[li + 1].insert(rule);
        }
      }
      pos = line.find("fsio-lint:", close);
    }
  }
}

bool Suppressed(const SourceFile& file, std::size_t line, const std::string& rule) {
  if (file.file_allows.count(rule) != 0) {
    return true;
  }
  auto it = file.line_allows.find(line);
  return it != file.line_allows.end() && it->second.count(rule) != 0;
}

// Finds `token` in `line` at identifier boundaries; returns npos if absent.
std::size_t FindToken(const std::string& line, const std::string& token) {
  std::size_t pos = line.find(token);
  while (pos != std::string::npos) {
    const bool lead_ok =
        pos == 0 || !IsIdentChar(line[pos - 1]) || !IsIdentChar(token.front());
    const std::size_t end = pos + token.size();
    const bool tail_ok =
        end >= line.size() || !IsIdentChar(line[end]) || !IsIdentChar(token.back());
    if (lead_ok && tail_ok) {
      return pos;
    }
    pos = line.find(token, pos + 1);
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Rule: raw-mutex — all locking goes through src/simcore/sync.h.

void CheckRawMutex(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (file.path == "src/simcore/sync.h") {
    return;  // the one sanctioned wrapper around the standard primitives
  }
  static const char* const kTokens[] = {
      "std::mutex",          "std::recursive_mutex",       "std::timed_mutex",
      "std::shared_mutex",   "std::recursive_timed_mutex", "std::shared_timed_mutex",
      "std::lock_guard",     "std::unique_lock",           "std::scoped_lock",
      "std::shared_lock",    "std::condition_variable",    "std::condition_variable_any",
  };
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    for (const char* token : kTokens) {
      if (FindToken(file.code[li], token) == std::string::npos) {
        continue;
      }
      if (!Suppressed(file, li + 1, "raw-mutex")) {
        diags->push_back({file.path, li + 1, "raw-mutex",
                          std::string(token) +
                              " outside src/simcore/sync.h; use fsio::Mutex / "
                              "fsio::MutexLock so Clang's thread-safety analysis "
                              "sees the lock"});
      }
      break;  // one diagnostic per line is enough
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: wall-clock — simulation code runs on simulated time only.

void CheckWallClock(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (file.scope != "src") {
    return;
  }
  static const char* const kTokens[] = {
      "sleep_for",      "sleep_until",    "usleep",
      "nanosleep",      "sleep(",         "system_clock",
      "steady_clock",   "high_resolution_clock", "gettimeofday",
      "clock_gettime",  "time(nullptr",   "time(NULL",
      "localtime",      "gmtime",         "clock()",
  };
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    for (const char* token : kTokens) {
      if (FindToken(file.code[li], token) == std::string::npos) {
        continue;
      }
      if (!Suppressed(file, li + 1, "wall-clock")) {
        diags->push_back({file.path, li + 1, "wall-clock",
                          std::string(token) +
                              " in src/: simulation code must use simulated "
                              "TimeNs (src/simcore/time.h), never wall-clock "
                              "time or sleeps (determinism)"});
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: dma-pairing — a gtest body that maps DMA pages must unmap them (or
// release its persistent descriptors), mirroring the dynamic oracle's
// "every Map has a matching Unmap" contract statically at call sites.
// MapPersistent() is exempt by design: persistent ring mappings are mapped
// once and never unmapped. Only member calls (`dma->MapPages(`,
// `dma_.MapPage(`) count as DmaApi use, so a fixture's own helper named
// MapPages() does not trip the rule.

// Finds `token` invoked as a member call (preceded by `.` or `->`).
bool FindMemberCall(const std::string& line, const std::string& token) {
  std::size_t pos = line.find(token);
  while (pos != std::string::npos) {
    const bool member =
        (pos >= 1 && line[pos - 1] == '.') ||
        (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>');
    if (member) {
      return true;
    }
    pos = line.find(token, pos + 1);
  }
  return false;
}

// The v2 rule is flow-sensitive: beyond the whole-body "maps but never
// unmaps" check, it walks each test body statement-by-statement and flags a
// `return` on a conditional path (inside an if/else/for/while/switch block,
// or a braceless `if (...) return;`) taken while more descriptors have been
// mapped/acquired than unmapped/released — the classic early-exit leak that
// a purely lexical count can never see because a later Unmap keeps the
// totals balanced. Returns inside lambdas defined in the body exit the
// lambda, not the test, and are ignored.

// True if the identifier `[begin, end)` in `line` is a DmaApi member call
// (preceded by `.` or `->`, followed by `(`).
bool IsMemberCallAt(const std::string& line, std::size_t begin, std::size_t end) {
  const bool member =
      (begin >= 1 && line[begin - 1] == '.') ||
      (begin >= 2 && line[begin - 2] == '-' && line[begin - 1] == '>');
  return member && end < line.size() && line[end] == '(';
}

void CheckDmaPairing(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (file.scope != "tests") {
    return;
  }
  static const char* const kTestMacros[] = {"TEST(", "TEST_F(", "TEST_P(", "TYPED_TEST("};
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    std::size_t macro_col = std::string::npos;
    for (const char* macro : kTestMacros) {
      macro_col = FindToken(file.code[li], macro);
      if (macro_col != std::string::npos) {
        break;
      }
    }
    if (macro_col == std::string::npos) {
      continue;
    }
    // Walk the test body in source order. `blocks` tags each open brace with
    // what introduced it: 'c' for a control-flow header, 'l' for a lambda,
    // 'o' for anything else (the body itself, plain scopes, initializers).
    // `pending` is the tag the *next* `{` will receive; it also marks a
    // braceless conditional so `if (x) return;` is caught without braces.
    std::vector<char> blocks;
    char pending = 'o';
    char prev_nonspace = '\0';
    int parens = 0;  // so `for (a; b; c)` semicolons don't clear `pending`
    bool entered = false;
    bool suppressed = false;
    std::size_t maps = 0, unmaps = 0, acquires = 0, releases = 0;
    std::vector<std::size_t> leak_returns;  // 1-based lines of leaky returns
    std::size_t end = li;
    for (std::size_t bi = li; bi < file.code.size(); ++bi) {
      const std::string& body = file.code[bi];
      if (file.line_allows.count(bi + 1) != 0 &&
          file.line_allows.at(bi + 1).count("dma-pairing") != 0) {
        suppressed = true;
      }
      for (std::size_t i = 0; i < body.size(); ++i) {
        const char c = body[i];
        if (IsIdentChar(c) && (i == 0 || !IsIdentChar(body[i - 1]))) {
          std::size_t w = i;
          while (w < body.size() && IsIdentChar(body[w])) {
            ++w;
          }
          const std::string word = body.substr(i, w - i);
          if (word == "if" || word == "else" || word == "for" || word == "while" ||
              word == "switch" || word == "do") {
            pending = 'c';
          } else if (word == "return") {
            const bool in_lambda =
                std::find(blocks.begin(), blocks.end(), 'l') != blocks.end();
            const bool conditional =
                pending == 'c' ||
                std::find(blocks.begin(), blocks.end(), 'c') != blocks.end();
            if (!in_lambda && conditional &&
                (maps > unmaps || acquires > releases)) {
              leak_returns.push_back(bi + 1);
            }
          } else if (IsMemberCallAt(body, i, w)) {
            if (word == "MapPages" || word == "MapPage") {
              ++maps;
            } else if (word == "UnmapDescriptor") {
              ++unmaps;
            } else if (word == "AcquirePersistentDescriptor") {
              ++acquires;
            } else if (word == "ReleasePersistentDescriptor") {
              ++releases;
            }
          }
          prev_nonspace = body[w - 1];
          i = w - 1;
          continue;
        }
        if (c == '{') {
          blocks.push_back(pending);
          pending = 'o';
          entered = true;
        } else if (c == '}') {
          if (!blocks.empty()) {
            blocks.pop_back();
          }
          pending = 'o';
        } else if (c == '(') {
          ++parens;
        } else if (c == ')') {
          --parens;
        } else if (c == ';') {
          if (parens <= 0) {
            pending = 'o';
          }
        } else if (c == '[') {
          // Lambda introducer unless it reads as a subscript (preceded by an
          // identifier, `]`, or `)`).
          if (prev_nonspace != ']' && prev_nonspace != ')' &&
              !IsIdentChar(prev_nonspace)) {
            pending = 'l';
          }
        }
        if (!std::isspace(static_cast<unsigned char>(c))) {
          prev_nonspace = c;
        }
      }
      if (entered && blocks.empty()) {
        end = bi;
        break;
      }
    }
    if (!suppressed && file.file_allows.count("dma-pairing") == 0) {
      if (maps > 0 && unmaps == 0) {
        diags->push_back({file.path, li + 1, "dma-pairing",
                          "test body calls MapPages()/MapPage() but never "
                          "UnmapDescriptor(); unmap what you map (or justify with "
                          "a fsio-lint allow directive)"});
      }
      if (acquires > 0 && releases == 0) {
        diags->push_back({file.path, li + 1, "dma-pairing",
                          "test body calls AcquirePersistentDescriptor() but never "
                          "ReleasePersistentDescriptor()"});
      }
      for (std::size_t line : leak_returns) {
        diags->push_back({file.path, line, "dma-pairing",
                          "early return on a conditional path leaves mapped DMA "
                          "descriptors unreleased; unmap before returning (or "
                          "justify with a fsio-lint allow directive)"});
      }
    }
    li = end;
  }
}

// ---------------------------------------------------------------------------
// Rule: discarded-fault-decision — FaultInjector::Sample() both advances the
// kind's deterministic RNG/op-counter streams AND decides whether a fault
// fires, so a statement-position call whose FaultDecision is dropped on the
// floor is almost always a bug: the fault silently never takes effect while
// the plan's op windows still advance. Flags member calls `x.Sample(...)` /
// `x->Sample(...)` that begin a statement and whose full expression ends at
// `;`. Deliberate stream-advance-only calls carry a per-line allow directive
// (or a (void) cast, which the rule does not match).

void CheckDiscardedFaultDecision(const SourceFile& file, std::vector<Diagnostic>* diags) {
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    std::size_t pos = line.find("Sample(");
    while (pos != std::string::npos) {
      const std::size_t next = line.find("Sample(", pos + 1);
      // Member call only (`.Sample(` / `->Sample(`): a free function or a
      // local helper that happens to be called Sample is out of scope.
      const bool member = (pos >= 1 && line[pos - 1] == '.') ||
                          (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>');
      if (!member) {
        pos = next;
        continue;
      }
      // Walk back over the receiver chain (identifiers, `.`, `->`, `::`).
      std::size_t start = line[pos - 1] == '.' ? pos - 1 : pos - 2;
      while (start > 0) {
        const char c = line[start - 1];
        if (IsIdentChar(c) || c == '.' || c == ':') {
          --start;
        } else if (c == '>' && start >= 2 && line[start - 2] == '-') {
          start -= 2;
        } else {
          break;
        }
      }
      // The chain must begin the statement; `if (x.Sample(...)` or
      // `= x.Sample(...)` or `(void)x.Sample(...)` all use the result.
      std::size_t before = start;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(line[before - 1])) != 0) {
        --before;
      }
      bool stmt_start;
      if (before > 0) {
        stmt_start = line[before - 1] == ';' || line[before - 1] == '{' ||
                     line[before - 1] == '}';
      } else {
        // The call opens this line: it begins a statement only if the
        // previous non-blank line ended one (`;`, `{`, `}`) — a trailing
        // `=`, `(`, `,`, `&&` etc. means this is a continuation (e.g. the
        // initializer of `if (const FaultDecision d = ...;`).
        stmt_start = true;
        for (std::size_t prev = li; prev > 0; --prev) {
          const std::string& above = file.code[prev - 1];
          const std::size_t tail = above.find_last_not_of(" \t");
          if (tail == std::string::npos) {
            continue;
          }
          const char c = above[tail];
          stmt_start = c == ';' || c == '{' || c == '}';
          break;
        }
      }
      if (!stmt_start) {
        pos = next;
        continue;
      }
      // Find the call's matching ')' (the argument list may span lines) and
      // look at the first character after it: `;` means discarded, anything
      // else (`.fire`, `)`, `,`) means the result is consumed.
      int depth = 0;
      bool resolved = false;
      bool discarded = false;
      const std::size_t last_line = std::min(file.code.size(), li + 12);
      std::size_t col = pos + std::strlen("Sample");
      for (std::size_t ln = li; ln < last_line && !resolved; ++ln) {
        const std::string& scan = file.code[ln];
        for (std::size_t k = ln == li ? col : 0; k < scan.size(); ++k) {
          if (scan[k] == '(') {
            ++depth;
          } else if (scan[k] == ')') {
            --depth;
            if (depth == 0) {
              std::size_t m = k + 1;
              for (std::size_t tail = ln; tail < last_line; ++tail, m = 0) {
                const std::string& after = file.code[tail];
                while (m < after.size() &&
                       std::isspace(static_cast<unsigned char>(after[m])) != 0) {
                  ++m;
                }
                if (m < after.size()) {
                  discarded = after[m] == ';';
                  break;
                }
              }
              resolved = true;
              break;
            }
          }
        }
      }
      if (resolved && discarded && !Suppressed(file, li + 1, "discarded-fault-decision")) {
        diags->push_back(
            {file.path, li + 1, "discarded-fault-decision",
             "FaultInjector::Sample() result discarded: the fault can never fire; "
             "use the FaultDecision (or justify with a fsio-lint allow directive "
             "if only the sample stream must advance)"});
      }
      pos = next;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: include-guard — headers carry FASTSAFE_<PATH>_H_ guards.

std::string ExpectedGuard(const std::string& path) {
  std::string guard = "FASTSAFE_";
  for (char c : path) {
    if (c == '/' || c == '.' || c == '-') {
      guard.push_back('_');
    } else {
      guard.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  guard.push_back('_');
  return guard;
}

void CheckIncludeGuard(const SourceFile& file, std::vector<Diagnostic>* diags) {
  const bool is_header = file.path.size() > 2 &&
                         (file.path.rfind(".h") == file.path.size() - 2 ||
                          file.path.rfind(".hpp") == file.path.size() - 4 ||
                          file.path.rfind(".hh") == file.path.size() - 3);
  if (!is_header || file.file_allows.count("include-guard") != 0) {
    return;
  }
  const std::string expected = ExpectedGuard(file.path);
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    std::stringstream ss(file.code[li]);
    std::string hash, macro;
    ss >> hash >> macro;
    if (hash == "#pragma" && macro == "once" && !Suppressed(file, li + 1, "include-guard")) {
      diags->push_back({file.path, li + 1, "include-guard",
                        "#pragma once: this repo uses " + expected + " guards"});
      return;
    }
    if (hash != "#ifndef") {
      continue;
    }
    if (macro != expected && !Suppressed(file, li + 1, "include-guard")) {
      diags->push_back({file.path, li + 1, "include-guard",
                        "guard macro '" + macro + "' does not match path (expected " +
                            expected + ")"});
      return;
    }
    // The guard must be defined on the next non-blank line.
    for (std::size_t di = li + 1; di < file.code.size(); ++di) {
      std::stringstream ds(file.code[di]);
      std::string dhash, dmacro;
      ds >> dhash >> dmacro;
      if (dhash.empty()) {
        continue;
      }
      if (dhash != "#define" || dmacro != expected) {
        if (!Suppressed(file, di + 1, "include-guard")) {
          diags->push_back({file.path, di + 1, "include-guard",
                            "#ifndef " + expected + " must be followed by #define " +
                                expected});
        }
      }
      return;
    }
    return;
  }
  if (!Suppressed(file, 1, "include-guard")) {
    diags->push_back(
        {file.path, 1, "include-guard", "header has no include guard (expected " +
                                            expected + ")"});
  }
}

// ---------------------------------------------------------------------------
// Rule: include-hygiene — quoted includes are repo-root-relative, system
// headers use <>, and nobody includes a .cc file.

void CheckIncludeHygiene(const SourceFile& file, std::vector<Diagnostic>* diags) {
  static const char* const kRoots[] = {"src/", "tests/", "tools/", "bench/", "examples/"};
  for (std::size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& line = file.raw[li];
    std::size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos || line[pos] != '#') {
      continue;
    }
    pos = line.find_first_not_of(" \t", pos + 1);
    if (pos == std::string::npos || line.compare(pos, 7, "include") != 0) {
      continue;
    }
    pos = line.find_first_not_of(" \t", pos + 7);
    if (pos == std::string::npos) {
      continue;
    }
    const char open = line[pos];
    const char close = open == '"' ? '"' : (open == '<' ? '>' : '\0');
    if (close == '\0') {
      continue;  // computed include (macro): out of scope
    }
    const std::size_t end = line.find(close, pos + 1);
    if (end == std::string::npos) {
      continue;
    }
    const std::string target = line.substr(pos + 1, end - pos - 1);
    if (Suppressed(file, li + 1, "include-hygiene")) {
      continue;
    }
    const bool repo_rooted =
        std::any_of(std::begin(kRoots), std::end(kRoots), [&](const char* root) {
          return target.rfind(root, 0) == 0;
        });
    if (target.size() > 3 && (target.rfind(".cc") == target.size() - 3 ||
                              target.rfind(".cpp") == target.size() - 4)) {
      diags->push_back({file.path, li + 1, "include-hygiene",
                        "never #include an implementation file (" + target + ")"});
    } else if (open == '"' && !repo_rooted) {
      diags->push_back({file.path, li + 1, "include-hygiene",
                        "quoted include \"" + target +
                            "\" must be repo-root-relative (src/..., tests/..., "
                            "tools/..., bench/..., examples/...)"});
    } else if (open == '<' && repo_rooted) {
      diags->push_back({file.path, li + 1, "include-hygiene",
                        "repo header <" + target + "> must use quotes"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: std-function-event — hot-path scheduling passes concrete callables.
// The event core stores typed trampolines with inline payloads (DESIGN.md
// §11); wrapping a callback in std::function before handing it to
// ScheduleAt/ScheduleAfter re-introduces a type-erased heap allocation per
// event, exactly the cost the arena removed. The reference scheduler keeps
// the old std::function representation on purpose — it exists to be
// differentially tested against — so it is the one sanctioned user.

void CheckStdFunctionEvent(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (file.scope != "src") {
    return;
  }
  if (file.path == "src/simcore/reference_event_queue.h" ||
      file.path == "src/simcore/reference_event_queue.cc") {
    return;  // the legacy heap scheduler, kept for differential testing
  }
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    if (FindToken(line, "std::function") == std::string::npos) {
      continue;
    }
    if (FindToken(line, "ScheduleAt") == std::string::npos &&
        FindToken(line, "ScheduleAfter") == std::string::npos) {
      continue;
    }
    if (!Suppressed(file, li + 1, "std-function-event")) {
      diags->push_back({file.path, li + 1, "std-function-event",
                        "std::function passed to ScheduleAt/ScheduleAfter in "
                        "src/: schedule a concrete lambda so the event rides "
                        "the typed-callback arena (DESIGN.md sec. 11), not a "
                        "type-erased heap closure"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-domain-id — protection-domain identities flow as fsio::DomainId
// (src/tenant/domain.h), never as a bare uint32_t. The wrapper is what keeps
// a domain id from being silently mixed with weights, counts, or tags — the
// exact confusion the multi-tenant isolation invariant depends on never
// happening. Flags a `uint32_t` (or `std::uint32_t`) declaration whose
// declared name contains "domain" but not the plural "domains" (a count of
// domains is an integer, not an identity). Template-argument and cast
// contexts (`static_cast<std::uint32_t>(...)`, `Vector<std::uint32_t>`) are
// out of scope: widening an id at a serialization boundary is deliberate.

void CheckRawDomainId(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (file.path == "src/tenant/domain.h") {
    return;  // the DomainId wrapper itself stores the raw value
  }
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    std::size_t pos = line.find("uint32_t");
    while (pos != std::string::npos) {
      const bool lead_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
      std::size_t after = pos + std::strlen("uint32_t");
      const bool tail_ok = after >= line.size() || !IsIdentChar(line[after]);
      if (!lead_ok || !tail_ok) {
        pos = line.find("uint32_t", pos + 1);
        continue;
      }
      // Skip declarator punctuation to the declared name; a non-identifier
      // next token means a template argument, cast, or functional-cast
      // context, which the rule leaves alone.
      while (after < line.size() &&
             (std::isspace(static_cast<unsigned char>(line[after])) != 0 ||
              line[after] == '&' || line[after] == '*')) {
        ++after;
      }
      if (after >= line.size() || !IsIdentChar(line[after])) {
        pos = line.find("uint32_t", after);
        continue;
      }
      std::string ident;
      std::size_t end = after;
      while (end < line.size() && IsIdentChar(line[end])) {
        ident.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(line[end]))));
        ++end;
      }
      if (ident.find("domain") != std::string::npos &&
          ident.find("domains") == std::string::npos &&
          !Suppressed(file, li + 1, "raw-domain-id")) {
        diags->push_back({file.path, li + 1, "raw-domain-id",
                          "'" + ident +
                              "' holds a domain id as bare uint32_t; use "
                              "fsio::DomainId (src/tenant/domain.h) so ids "
                              "cannot be mixed with other integers"});
      }
      pos = line.find("uint32_t", end);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-descriptor-enqueue — src/ code that feeds descriptors to
// the NIC (PostRxDescriptor/EnqueueTx member calls) must also wire or
// perform the capability gate in the same file: SetCapabilityCheck() on the
// NIC, or an explicit GateOnCapability()/DeviceCheckCapability() on the
// descriptor path. In kCapability mode the IOMMU is bypassed, so a NIC fed
// descriptors without the gate silently loses the only safety check the
// mode has — exactly the skip_capability_check bug, introduced structurally
// instead of via the knob. The NIC implementation is exempt: it IS the gate.

void CheckUncheckedDescriptorEnqueue(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (file.scope != "src") {
    return;
  }
  if (file.path == "src/nic/nic.h" || file.path == "src/nic/nic.cc") {
    return;  // the gate's own declaration and implementation
  }
  bool gated = false;
  for (const std::string& line : file.code) {
    if (FindMemberCall(line, "SetCapabilityCheck(") ||
        FindMemberCall(line, "GateOnCapability(") ||
        FindMemberCall(line, "DeviceCheckCapability(")) {
      gated = true;
      break;
    }
  }
  if (gated) {
    return;
  }
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    if (!FindMemberCall(line, "PostRxDescriptor(") && !FindMemberCall(line, "EnqueueTx(")) {
      continue;
    }
    if (!Suppressed(file, li + 1, "unchecked-descriptor-enqueue")) {
      diags->push_back({file.path, li + 1, "unchecked-descriptor-enqueue",
                        "descriptors enqueued to a NIC that is never wired for "
                        "capability mode: call SetCapabilityCheck() (or gate the "
                        "path with DeviceCheckCapability()) so kCapability keeps "
                        "its only safety check"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: stale-mode-count — no hardcoded protection-mode counts. Prose like
// "sweeps all N modes" or "the N IOMMU modes" (N a literal number) in
// comments, help strings, or code goes stale the day a mode is added or
// removed, and nothing ever fails: the sweep silently under-covers. The one
// canonical table is kProtectionModes (with kAllModes derived from it) in
// src/driver/protection.h; reference it (or spell the modes out) instead of
// a literal count. Scans RAW lines: stale counts hide in comments and usage
// strings, exactly the text the code view blanks.

// Case-insensitively matches `word` at `*pos` in `line` (identifier-boundary
// end); on success advances `*pos` past the word and any following spaces.
bool SkipWordCI(const std::string& line, std::size_t* pos, const char* word) {
  const std::size_t len = std::strlen(word);
  if (*pos + len > line.size()) {
    return false;
  }
  for (std::size_t k = 0; k < len; ++k) {
    if (std::tolower(static_cast<unsigned char>(line[*pos + k])) !=
        std::tolower(static_cast<unsigned char>(word[k]))) {
      return false;
    }
  }
  const std::size_t end = *pos + len;
  if (end < line.size() && IsIdentChar(line[end])) {
    return false;
  }
  *pos = end;
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '-')) {
    ++*pos;
  }
  return true;
}

void CheckStaleModeCount(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (file.path == "src/driver/protection.h") {
    return;  // the canonical mode table itself
  }
  for (std::size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& line = file.raw[li];
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(line[i])) == 0) {
        continue;
      }
      if (i > 0 && (IsIdentChar(line[i - 1]) || line[i - 1] == '.')) {
        while (i + 1 < line.size() && IsIdentChar(line[i + 1])) {
          ++i;  // inside an identifier or a dotted number; skip the run
        }
        continue;
      }
      std::size_t j = i;
      while (j < line.size() && std::isdigit(static_cast<unsigned char>(line[j])) != 0) {
        ++j;
      }
      std::size_t k = j;
      while (k < line.size() && (line[k] == ' ' || line[k] == '-')) {
        ++k;
      }
      // Optional qualifier between the count and "modes".
      if (!SkipWordCI(line, &k, "protection")) {
        SkipWordCI(line, &k, "iommu");
      }
      if (!SkipWordCI(line, &k, "modes") && !SkipWordCI(line, &k, "mode")) {
        i = j - 1;
        continue;
      }
      if (!Suppressed(file, li + 1, "stale-mode-count")) {
        diags->push_back({file.path, li + 1, "stale-mode-count",
                          "hardcoded protection-mode count; reference the "
                          "mode table (kProtectionModes / kAllModes in "
                          "src/driver/protection.h) or spell the modes out"});
      }
      break;  // one diagnostic per line is enough
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.

struct RuleInfo {
  const char* id;
  const char* summary;
  void (*check)(const SourceFile&, std::vector<Diagnostic>*);
};

const RuleInfo kRules[] = {
    {"raw-mutex", "all locking goes through src/simcore/sync.h (annotated Mutex)",
     &CheckRawMutex},
    {"wall-clock", "no sleeps or wall-clock time in src/ (simulated time only)",
     &CheckWallClock},
    {"dma-pairing", "gtest bodies that Map* DMA pages must Unmap*/Release*",
     &CheckDmaPairing},
    {"discarded-fault-decision",
     "FaultInjector::Sample() results must be used (the fault never fires otherwise)",
     &CheckDiscardedFaultDecision},
    {"std-function-event",
     "src/ hot paths schedule concrete callables, never std::function",
     &CheckStdFunctionEvent},
    {"raw-domain-id",
     "protection-domain ids flow as fsio::DomainId, never bare uint32_t",
     &CheckRawDomainId},
    {"unchecked-descriptor-enqueue",
     "src/ NIC descriptor feeders must wire the capability gate (SetCapabilityCheck)",
     &CheckUncheckedDescriptorEnqueue},
    {"stale-mode-count",
     "no hardcoded protection-mode counts; reference the canonical mode table",
     &CheckStaleModeCount},
    {"include-guard", "headers carry FASTSAFE_<PATH>_H_ guards", &CheckIncludeGuard},
    {"include-hygiene", "repo-root-relative quoted includes; never include .cc",
     &CheckIncludeHygiene},
};

bool HasSourceExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
         ext == ".cpp" || ext == ".cxx";
}

// True for directories the recursive walk must not descend into.
bool SkippedDir(const std::string& rel) {
  const std::string name = fs::path(rel).filename().string();
  if (!name.empty() && name.front() == '.') {
    return true;
  }
  if (name.rfind("build", 0) == 0) {
    return true;
  }
  // The fixtures are deliberately dirty; they are linted one-by-one (with
  // explicit paths) by run_lint_fixtures_check.cmake, never in a sweep.
  return rel == "tests/lint" || rel.rfind("tests/lint/", 0) == 0;
}

std::string RelPath(const fs::path& path) {
  std::error_code ec;
  fs::path rel = fs::proximate(path, fs::current_path(), ec);
  if (ec) {
    rel = path;
  }
  return rel.generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  namespace cli = fsio::cli;
  cli::Choices<std::string> rule_ids;
  std::vector<std::string> rules;  // default: every rule
  for (const RuleInfo& rule : kRules) {
    rule_ids.emplace_back(rule.id, rule.id);
    rules.push_back(rule.id);
  }
  std::string forced_scope;
  bool list_rules = false;
  std::vector<std::string> inputs;
  cli::Parse(argc, argv, "fsio_lint",
             "Repo-specific static checks; run from the repo root (DESIGN.md section 9).",
             {
                 cli::Positionals("PATH...", &inputs, "files or directories to lint"),
                 cli::OneOfList("rules", &rules, rule_ids, "rules to run (default: all)"),
                 cli::String("scope", &forced_scope, "SCOPE",
                             "rule scope for every file: src, tests, tools, bench or examples\n"
                             "(default: the path's top-level directory)"),
                 cli::Switch("list-rules", &list_rules, "list the rules and exit"),
             });
  if (list_rules) {
    for (const RuleInfo& rule : kRules) {
      std::printf("%-16s %s\n", rule.id, rule.summary);
    }
    return 0;
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "fsio_lint: no PATH given (see --help)\n");
    return 2;
  }
  const std::set<std::string> enabled(rules.begin(), rules.end());

  // Expand inputs into the file list (explicit files always included).
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    const fs::path path(input);
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      std::vector<std::string> found;
      fs::recursive_directory_iterator it(path, fs::directory_options::skip_permission_denied, ec),
          end;
      for (; it != end; it.increment(ec)) {
        const std::string rel = RelPath(it->path());
        if (it->is_directory() && SkippedDir(rel)) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && HasSourceExtension(it->path())) {
          found.push_back(rel);
        }
      }
      std::sort(found.begin(), found.end());
      files.insert(files.end(), found.begin(), found.end());
    } else if (fs::exists(path, ec)) {
      files.push_back(RelPath(path));
    } else {
      std::fprintf(stderr, "fsio_lint: no such file or directory: %s\n", input.c_str());
      return 2;
    }
  }

  std::vector<Diagnostic> diags;
  std::size_t scanned = 0;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "fsio_lint: cannot read %s\n", path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    SourceFile file;
    file.path = path;
    const std::size_t slash = path.find('/');
    file.scope = forced_scope.empty()
                     ? (slash == std::string::npos ? "" : path.substr(0, slash))
                     : forced_scope;
    file.raw = SplitLines(buffer.str());
    file.code = BuildCodeView(file.raw);
    ParseDirectives(&file);
    ++scanned;

    for (const RuleInfo& rule : kRules) {
      if (enabled.count(rule.id) != 0) {
        rule.check(file, &diags);
      }
    }
  }

  for (const Diagnostic& d : diags) {
    std::printf("%s:%zu: %s: %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  }
  if (diags.empty()) {
    std::printf("fsio_lint: clean (%zu files scanned)\n", scanned);
    return 0;
  }
  std::printf("fsio_lint: %zu violation(s) (%zu files scanned)\n", diags.size(), scanned);
  return 1;
}
