/**
 * @file
 * Checks an error-returning parser's message the way a death test
 * checks stderr, so a rejection is tested in process.
 */

#ifndef SBN_TESTS_ERROR_MATCH_HH
#define SBN_TESTS_ERROR_MATCH_HH

#include <gtest/gtest.h>

#include <regex.h>

#include <string>

namespace sbn {

/**
 * Passes when @p error contains a match of @p pattern, a POSIX
 * extended regex searched with regexec() as EXPECT_DEATH searches
 * stderr on Linux. An empty error (the input was accepted) never
 * passes.
 */
inline ::testing::AssertionResult
errorMatches(const std::string &error, const std::string &pattern)
{
    regex_t re;
    if (::regcomp(&re, pattern.c_str(), REG_EXTENDED | REG_NOSUB) != 0)
        return ::testing::AssertionFailure()
               << "bad regex '" << pattern << "'";
    const bool found = !error.empty() &&
                       ::regexec(&re, error.c_str(), 0, nullptr, 0) == 0;
    ::regfree(&re);
    if (found)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "error '" << error << "' does not match '" << pattern
           << "'";
}

} // namespace sbn

#endif // SBN_TESTS_ERROR_MATCH_HH
