// Shared tables and helpers for the test suites.
//
// Every suite that parameterizes over protection modes must use kAllModes
// (src/driver/protection.h) or these tables instead of redeclaring its own:
// a newly added ProtectionMode then fails the mode table's static_assert or
// is picked up automatically, instead of being silently missed by one suite.
#ifndef FASTSAFE_TESTS_TEST_UTIL_H_
#define FASTSAFE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "src/driver/protection.h"

namespace fsio {
namespace test {

// Modes that tear mappings down on descriptor completion and do so with the
// strict safety property (unmap implies immediate invalidation).
inline constexpr ProtectionMode kStrictlySafeTearingModes[] = {
    ProtectionMode::kStrict,
    ProtectionMode::kStrictPreserve,
    ProtectionMode::kStrictContig,
    ProtectionMode::kFastSafe,
};

// gtest-safe test-name suffix for a mode ("fast-and-safe" -> "fast_and_safe").
inline std::string ModeTestName(ProtectionMode mode) {
  std::string name = ProtectionModeName(mode);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

// Name generator for INSTANTIATE_TEST_SUITE_P over ProtectionMode.
inline std::string ModeParamName(const ::testing::TestParamInfo<ProtectionMode>& info) {
  return ModeTestName(info.param);
}

}  // namespace test
}  // namespace fsio

#endif  // FASTSAFE_TESTS_TEST_UTIL_H_
