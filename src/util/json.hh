/**
 * @file
 * JSON string escaping shared by every layer that writes JSON lines:
 * the service protocol and journal, trace spans, and the sharded
 * sweep's missing-points manifest.
 */

#ifndef SBN_UTIL_JSON_HH
#define SBN_UTIL_JSON_HH

#include <string>

namespace sbn {

/**
 * @p text as the body of a JSON string (without the quotes): '"' and
 * '\' are backslash-escaped, newline, tab and carriage return take
 * their short escapes, and every other control character is written
 * as \u00XX, so the result is always valid JSON.
 */
std::string jsonEscape(const std::string &text);

} // namespace sbn

#endif // SBN_UTIL_JSON_HH
