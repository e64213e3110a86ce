// Shared command-line layer: the strict flag parser (src/cli/flags.h), the
// repro file format built on it (src/cli/repro.h) and the one
// protection-mode table (src/driver/protection.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/cli/flags.h"
#include "src/cli/repro.h"
#include "src/driver/protection.h"

namespace fsio {
namespace {

struct Options {
  std::uint32_t flows = 5;
  std::uint64_t seed = 1;
  std::uint32_t cores = 4;
  double scale = 1.0;
  std::string trace;
  bool csv = false;
  ProtectionMode mode = ProtectionMode::kFastSafe;
  std::vector<std::uint32_t> sweep;
  std::vector<ProtectionMode> tenants;
  std::vector<std::string> paths;
};

std::vector<cli::Flag> Table(Options* o) {
  return {
      cli::Unsigned("flows", &o->flows, "iperf flows"),
      cli::Unsigned("seed", &o->seed, "seed"),
      cli::Unsigned("cores", &o->cores, "cores", 1, 64),
      cli::Double("scale", &o->scale, "scale factor"),
      cli::String("trace", &o->trace, "FILE", "trace output"),
      cli::Switch("csv", &o->csv, "CSV output"),
      cli::OneOf("mode", &o->mode, ModeTokenChoices(), "MODE", "protection mode"),
      cli::UnsignedList("sweep", &o->sweep, "flow counts", 1),
      cli::OneOfList("tenant-modes", &o->tenants, ModeTokenChoices(), "per-tenant modes"),
      cli::Positionals("PATH...", &o->paths, "inputs"),
  };
}

// Parses `args`; returns "" on success, else the error message.
std::string ParseError(const std::vector<std::string>& args, Options* o) {
  bool help = false;
  std::string error;
  const bool ok = cli::ParseArgs(args, Table(o), &help, &error);
  EXPECT_EQ(ok, error.empty());
  return error;
}

TEST(CliFlags, BothSyntaxesAndPositionals) {
  Options o;
  ASSERT_EQ(ParseError({"--flows=7", "a.cc", "--seed", "99", "--csv", "--mode", "strict",
                        "--trace=t.json", "b", "--scale", "-0.5"},
                       &o),
            "");
  EXPECT_EQ(o.flows, 7u);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_TRUE(o.csv);
  EXPECT_EQ(o.mode, ProtectionMode::kStrict);
  EXPECT_EQ(o.trace, "t.json");
  EXPECT_DOUBLE_EQ(o.scale, -0.5);
  EXPECT_EQ(o.paths, (std::vector<std::string>{"a.cc", "b"}));
}

TEST(CliFlags, UnsetFlagsKeepTheirDefaults) {
  Options o;
  ASSERT_EQ(ParseError({}, &o), "");
  EXPECT_EQ(o.flows, 5u);
  EXPECT_EQ(o.mode, ProtectionMode::kFastSafe);
  EXPECT_TRUE(o.paths.empty());
}

TEST(CliFlags, LastOneWins) {
  Options o;
  ASSERT_EQ(ParseError({"--flows=1", "--flows", "2", "--sweep=1,2,3", "--sweep=4"}, &o), "");
  EXPECT_EQ(o.flows, 2u);
  EXPECT_EQ(o.sweep, (std::vector<std::uint32_t>{4}));
}

TEST(CliFlags, MissingValue) {
  Options o;
  EXPECT_EQ(ParseError({"--flows"}, &o), "--flows: missing value");
  // The next flag is not taken as the value.
  EXPECT_EQ(ParseError({"--seed", "--csv"}, &o), "--seed: missing value");
}

TEST(CliFlags, RejectsBadNumbers) {
  struct Case {
    std::vector<std::string> args;
    std::string want;
  };
  const Case cases[] = {
      {{"--flows=abc"}, "--flows: 'abc' is not an unsigned decimal integer"},
      {{"--flows=5x"}, "--flows: '5x' is not an unsigned decimal integer"},
      {{"--flows= 5"}, "--flows: ' 5' is not an unsigned decimal integer"},
      {{"--flows=-1"}, "--flows: '-1' is not an unsigned decimal integer"},
      {{"--flows", "+1"}, "--flows: '+1' is not an unsigned decimal integer"},
      {{"--flows="}, "--flows: empty value"},
      {{"--flows=4294967296"}, "--flows must be at most 4294967295, got 4294967296"},
      {{"--seed=18446744073709551616"},
       "--seed must be at most 18446744073709551615, got 18446744073709551616"},
      {{"--cores=0"}, "--cores must be at least 1, got 0"},
      {{"--cores=65"}, "--cores must be at most 64, got 65"},
      {{"--scale=x"}, "--scale: 'x' is not a finite number"},
      {{"--scale=1e999"}, "--scale: '1e999' is not a finite number"},
      {{"--scale=nan"}, "--scale: 'nan' is not a finite number"},
      {{"--scale=1.5x"}, "--scale: '1.5x' is not a finite number"},
  };
  for (const Case& c : cases) {
    Options o;
    EXPECT_EQ(ParseError(c.args, &o), c.want) << c.args[0];
    EXPECT_EQ(o.flows, 5u) << "a rejected value must not be stored";
  }
}

TEST(CliFlags, AcceptsTheFullWidth) {
  Options o;
  ASSERT_EQ(
      ParseError({"--flows=4294967295", "--seed=18446744073709551615", "--cores=64"}, &o), "");
  EXPECT_EQ(o.flows, 4294967295u);
  EXPECT_EQ(o.seed, 18446744073709551615u);
}

TEST(CliFlags, RejectsUnknownFlagsAndSwitchValues) {
  Options o;
  EXPECT_EQ(ParseError({"--nope"}, &o), "unknown flag '--nope'");
  EXPECT_EQ(ParseError({"--nope=1"}, &o), "unknown flag '--nope'");
  EXPECT_EQ(ParseError({"--csv=1"}, &o), "--csv: takes no value");
  EXPECT_EQ(ParseError({"--trace="}, &o), "--trace: empty value");
}

TEST(CliFlags, OneOfNamesTheChoices) {
  Options o;
  const std::string error = ParseError({"--mode=bogus"}, &o);
  EXPECT_EQ(error.rfind("--mode: unknown value 'bogus' (one of: off strict", 0), 0u) << error;
  // Aliases resolve but are not advertised.
  EXPECT_EQ(error.find("fastsafe"), std::string::npos) << error;
  EXPECT_EQ(ParseError({"--mode="}, &o).rfind("--mode: empty value", 0), 0u);
}

TEST(CliFlags, ListEdgeCases) {
  Options o;
  EXPECT_EQ(ParseError({"--sweep=1,,3"}, &o), "--sweep: empty element in '1,,3'");
  EXPECT_EQ(ParseError({"--sweep=1,2,"}, &o), "--sweep: empty element in '1,2,'");
  EXPECT_EQ(ParseError({"--sweep=,1"}, &o), "--sweep: empty element in ',1'");
  EXPECT_EQ(ParseError({"--sweep=1,0"}, &o), "--sweep must be at least 1, got 0");
  EXPECT_EQ(ParseError({"--sweep=1,x"}, &o),
            "--sweep: 'x' is not an unsigned decimal integer");
  EXPECT_TRUE(o.sweep.empty()) << "a rejected list must not be stored";
  ASSERT_EQ(ParseError({"--sweep", "10,20", "--tenant-modes=strict,fs,cap"}, &o), "");
  EXPECT_EQ(o.sweep, (std::vector<std::uint32_t>{10, 20}));
  EXPECT_EQ(o.tenants, (std::vector<ProtectionMode>{ProtectionMode::kStrict,
                                                    ProtectionMode::kFastSafe,
                                                    ProtectionMode::kCapability}));
  EXPECT_EQ(ParseError({"--tenant-modes=strict,"}, &o),
            "--tenant-modes: empty element in 'strict,'");
}

TEST(CliFlags, PositionalsNeedABinding) {
  std::uint32_t n = 0;
  bool help = false;
  std::string error;
  EXPECT_FALSE(cli::ParseArgs({"stray"}, {cli::Unsigned("n", &n, "n")}, &help, &error));
  EXPECT_EQ(error, "unexpected argument 'stray'");
}

TEST(CliFlags, HelpStopsParsing) {
  Options o;
  bool help = false;
  std::string error;
  ASSERT_TRUE(cli::ParseArgs({"--flows=1", "--help", "--flows=abc"}, Table(&o), &help, &error));
  EXPECT_TRUE(help);
  ASSERT_TRUE(cli::ParseArgs({"-h"}, Table(&o), &help, &error));
  EXPECT_TRUE(help);
}

TEST(CliFlags, GeneratedHelpListsEveryFlag) {
  Options o;
  const std::vector<cli::Flag> flags = Table(&o);
  const std::string usage = cli::Usage("tool", "Does things.", flags);
  EXPECT_EQ(usage.rfind("usage: tool PATH... [options]\nDoes things.\n", 0), 0u) << usage;
  for (const cli::Flag& flag : flags) {
    EXPECT_NE(usage.find(flag.name), std::string::npos) << flag.name << "\n" << usage;
  }
  EXPECT_NE(usage.find("--flows=N"), std::string::npos);
  EXPECT_NE(usage.find("(default 5)"), std::string::npos);
  EXPECT_NE(usage.find("(default fast-safe)"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(CliNumbers, StrictHelpers) {
  std::uint32_t u32 = 7;
  EXPECT_TRUE(cli::ParseUnsigned("4294967295", &u32));
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_FALSE(cli::ParseUnsigned("4294967296", &u32));
  EXPECT_FALSE(cli::ParseUnsigned("abc", &u32));
  EXPECT_FALSE(cli::ParseUnsigned("", &u32));
  EXPECT_FALSE(cli::ParseUnsigned("-1", &u32));
  std::uint64_t capped = 0;
  EXPECT_FALSE(cli::ParseUnsigned("9", 4, &capped));
  EXPECT_TRUE(cli::ParseUnsigned("4", 4, &capped));
  double d = 0.0;
  EXPECT_TRUE(cli::ParseDouble("0.25", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_FALSE(cli::ParseDouble("x", &d));
  EXPECT_FALSE(cli::ParseDouble("", &d));
  EXPECT_FALSE(cli::ParseDouble(" 1", &d));
  EXPECT_FALSE(cli::ParseDouble("inf", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
}

// A repro format over a few of Options' fields, with "item" records of a
// bare count and a keyed protection mode.
struct Item {
  std::uint32_t count = 0;
  ProtectionMode under = ProtectionMode::kOff;
};

cli::ReproFormat ReproTable(Options* o) {
  return {"test-repro v1",
          {cli::Unsigned("seed", &o->seed, ""), cli::Unsigned("cores", &o->cores, "", 1, 64),
           cli::OneOf("mode", &o->mode, ModeTokenChoices(), "MODE", "")},
          "item"};
}

std::vector<cli::Flag> ItemFields(Item* item) {
  return {cli::Unsigned("count", &item->count, ""),
          cli::OneOf("under", &item->under, ModeTokenChoices(), "MODE", "")};
}

// Reads `text` into fresh Options and items; returns "" or the error.
std::string ReadError(const std::string& text, Options* o, std::vector<Item>* items) {
  *o = Options{};
  items->clear();
  std::string error;
  const bool ok = cli::ReadRepro(text, ReproTable(o), cli::AppendRecords(items, ItemFields, 1),
                                 &error);
  EXPECT_EQ(ok, error.empty());
  return error;
}

TEST(CliRepro, WritesEveryCurrentValueAndReadsItBack) {
  Options o;
  o.seed = 42;
  o.mode = ProtectionMode::kStrict;
  const std::vector<Item> items = {{3, ProtectionMode::kDeferred}, {0, ProtectionMode::kOff}};
  const std::string text =
      cli::WriteRepro(ReproTable(&o), cli::FormatRecords(items, ItemFields, 1));
  EXPECT_EQ(text,
            "test-repro v1\nseed 42\ncores 4\nmode strict\nitems 2\n"
            "item 3 under=deferred\nitem 0 under=off\nend\n");
  Options parsed;
  std::vector<Item> parsed_items;
  ASSERT_EQ(ReadError(text, &parsed, &parsed_items), "");
  EXPECT_EQ(parsed.seed, 42u);
  EXPECT_EQ(parsed.mode, ProtectionMode::kStrict);
  ASSERT_EQ(parsed_items.size(), 2u);
  EXPECT_EQ(parsed_items[0].count, 3u);
  EXPECT_EQ(parsed_items[0].under, ProtectionMode::kDeferred);
  EXPECT_EQ(parsed_items[1].under, ProtectionMode::kOff);
  // A missing key keeps its bound value; no records is fine.
  ASSERT_EQ(ReadError("test-repro v1\nitems 0\nend\n", &parsed, &parsed_items), "");
  EXPECT_EQ(parsed.seed, 1u);
  EXPECT_TRUE(parsed_items.empty());
}

TEST(CliRepro, RejectsDamagedFiles) {
  struct Case {
    std::string text;
    std::string want;  // the error's start
  };
  const std::string head = "test-repro v1\n";
  const Case cases[] = {
      {"", "line 1: missing 'test-repro v1' header"},
      {"test-repro v2\nitems 0\nend\n", "line 1: missing 'test-repro v1' header"},
      {head + "speed 3\nitems 0\nend\n", "line 2: unknown key 'speed'"},
      {head + "seed 3\nseed 4\nitems 0\nend\n", "line 3: repeated key 'seed'"},
      {head + "seed 3x\nitems 0\nend\n",
       "line 2: --seed: '3x' is not an unsigned decimal integer"},
      {head + "cores 0\nitems 0\nend\n", "line 2: --cores must be at least 1, got 0"},
      {head + "mode warp\nitems 0\nend\n", "line 2: --mode: unknown value 'warp'"},
      {head + "seed 3 4\nitems 0\nend\n", "line 2: want 'key value', got 'seed 3 4'"},
      {head + "\nitems 0\nend\n", "line 2: want 'key value', got ''"},
      {head + "seed 3\n", "line 3: missing 'items N' line"},
      {head + "items 0\nitems 0\nend\n", "line 3: want 'end' after 0 item lines, got 'items 0'"},
      {head + "items 1x\nend\n", "line 2: --items: '1x' is not an unsigned decimal integer"},
      {head + "items 2\nitem 1 under=off\nend\n", "line 4: want 2 item lines, got 1"},
      {head + "items 2\nitem 1 under=off\n", "line 4: want 2 item lines, got 1"},
      {head + "items 1\nitem 1 under=off\nitem 2 under=off\nend\n",
       "line 4: want 'end' after 1 item lines, got 'item 2 under=off'"},
      {head + "items 0\n", "line 3: missing 'end' after 0 item lines"},
      {head + "items 0\nend\nseed 2\n", "line 4: text after 'end'"},
      {head + "items 1\nitem 1\nend\n", "line 3: want 2 fields, got 1"},
      {head + "items 1\nitem 1 off\nend\n", "line 3: want 'under=...', got 'off'"},
      {head + "items 1\nitem -1 under=off\nend\n",
       "line 3: --count: '-1' is not an unsigned decimal integer"},
  };
  for (const Case& c : cases) {
    Options o;
    std::vector<Item> items;
    const std::string error = ReadError(c.text, &o, &items);
    EXPECT_EQ(error.substr(0, c.want.size()), c.want) << c.text;
  }
}

TEST(ModeTable, CanonicalTokensRoundTrip) {
  for (ProtectionMode mode : kAllModes) {
    ProtectionMode parsed = ProtectionMode::kOff;
    ASSERT_TRUE(ParseModeToken(ModeToken(mode), &parsed)) << ModeToken(mode);
    EXPECT_EQ(parsed, mode);
  }
}

TEST(ModeTable, AliasesResolve) {
  const std::pair<const char*, ProtectionMode> aliases[] = {
      {"fastsafe", ProtectionMode::kFastSafe},
      {"fs", ProtectionMode::kFastSafe},
      {"preserve", ProtectionMode::kStrictPreserve},
      {"linux+a", ProtectionMode::kStrictPreserve},
      {"contig", ProtectionMode::kStrictContig},
      {"linux+b", ProtectionMode::kStrictContig},
      {"hugepersist", ProtectionMode::kHugepagePersistent},
      {"cap", ProtectionMode::kCapability},
  };
  for (const auto& [token, mode] : aliases) {
    ProtectionMode parsed = ProtectionMode::kOff;
    ASSERT_TRUE(ParseModeToken(token, &parsed)) << token;
    EXPECT_EQ(parsed, mode) << token;
  }
  ProtectionMode untouched = ProtectionMode::kDeferred;
  EXPECT_FALSE(ParseModeToken("bogus", &untouched));
  EXPECT_FALSE(ParseModeToken("", &untouched));
  EXPECT_FALSE(ParseModeToken("fast-and-safe", &untouched)) << "display names are not tokens";
  EXPECT_EQ(untouched, ProtectionMode::kDeferred);
}

TEST(ModeTable, TokensAreUnique) {
  std::set<std::string> seen;
  for (const auto& [token, mode] : ModeTokenChoices()) {
    EXPECT_TRUE(seen.insert(token).second) << "duplicate token " << token;
  }
  EXPECT_EQ(seen.size(), 16u);
}

// The golden CSVs, the benchmark manifest and the repro formats print these;
// they must never change.
TEST(ModeTable, NamesAndTokensAreStable) {
  const char* const names[] = {"iommu-off",         "linux-strict",          "linux-deferred",
                               "linux+A(preserve)", "linux+B(contig+batch)", "fast-and-safe",
                               "hugepage-persistent", "capability"};
  const char* const tokens[] = {"off",           "strict",    "deferred",
                                "strict-preserve", "strict-contig", "fast-safe",
                                "hugepage-persistent", "capability"};
  ASSERT_EQ(kAllModes.size(), std::size(names));
  for (std::size_t i = 0; i < kAllModes.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(kAllModes[i]), i);
    EXPECT_STREQ(ProtectionModeName(kAllModes[i]), names[i]);
    EXPECT_STREQ(ModeToken(kAllModes[i]), tokens[i]);
  }
}

}  // namespace
}  // namespace fsio
