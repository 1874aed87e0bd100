/**
 * @file
 * parseJson for tests that validate emitted documents: every suite that
 * checks an artifact (telemetry, attribution, run reports) parses it
 * with bench_diff's JsonReader, the reader the diff and lint tools use,
 * so a serialization regression fails loudly instead of producing files
 * Perfetto or the diff tooling would reject. JsonValue::at() throws on
 * a missing key, which gtest reports as a test failure.
 */

#ifndef FAFNIR_TESTS_JSON_TEST_UTIL_HH
#define FAFNIR_TESTS_JSON_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "tools/bench_diff_util.hh"

namespace fafnir::testutil
{

using JsonValue = benchdiff::JsonValue;

/** Parse @p text, expecting success (gtest failure otherwise). */
inline JsonValue
parseJson(const std::string &text)
{
    try {
        return benchdiff::JsonReader(text).parse();
    } catch (const std::runtime_error &e) {
        ADD_FAILURE() << "invalid JSON (" << e.what()
                      << "): " << text.substr(0, 200);
        return {};
    }
}

} // namespace fafnir::testutil

#endif // FAFNIR_TESTS_JSON_TEST_UTIL_HH
