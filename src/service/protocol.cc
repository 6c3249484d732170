#include "service/protocol.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sbn {

namespace {

/** Cursor over one line being parsed. */
struct Cursor
{
    const std::string &text;
    std::size_t pos = 0;

    bool atEnd() const { return pos >= text.size(); }
    char peek() const { return text[pos]; }

    void skipSpace()
    {
        while (!atEnd() && (text[pos] == ' ' || text[pos] == '\t'))
            ++pos;
    }

    bool consume(char c)
    {
        if (atEnd() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }
};

bool
parseJsonString(Cursor &cur, std::string &out, std::string &error)
{
    if (!cur.consume('"')) {
        error = "expected '\"' at offset " + std::to_string(cur.pos);
        return false;
    }
    out.clear();
    while (!cur.atEnd()) {
        const char c = cur.text[cur.pos++];
        if (c == '"')
            return true;
        if (static_cast<unsigned char>(c) < 0x20) {
            error = "raw control character inside string";
            return false;
        }
        if (c != '\\') {
            out += c;
            continue;
        }
        if (cur.atEnd()) {
            error = "dangling escape at end of string";
            return false;
        }
        const char esc = cur.text[cur.pos++];
        switch (esc) {
        case '"':
            out += '"';
            break;
        case '\\':
            out += '\\';
            break;
        case '/':
            out += '/';
            break;
        case 'n':
            out += '\n';
            break;
        case 't':
            out += '\t';
            break;
        case 'r':
            out += '\r';
            break;
        default:
            // \b, \f and \uXXXX never appear in the values this
            // protocol carries (flag strings, paths, state names);
            // rejecting them keeps the parser honest about what it
            // round-trips.
            error = std::string("unsupported escape '\\") + esc +
                    "' in string";
            return false;
        }
    }
    error = "unterminated string";
    return false;
}

bool
parseJsonScalar(Cursor &cur, JsonScalar &out, std::string &error)
{
    cur.skipSpace();
    if (cur.atEnd()) {
        error = "missing value";
        return false;
    }
    const char c = cur.peek();
    if (c == '"') {
        out.kind = JsonScalar::Kind::String;
        return parseJsonString(cur, out.text, error);
    }
    if (c == '{' || c == '[') {
        error = "nested values are not part of this protocol";
        return false;
    }
    // Literal: true / false / null / number.
    const std::size_t start = cur.pos;
    while (!cur.atEnd() && cur.peek() != ',' && cur.peek() != '}' &&
           cur.peek() != ' ' && cur.peek() != '\t')
        ++cur.pos;
    const std::string token =
        cur.text.substr(start, cur.pos - start);
    if (token == "true" || token == "false") {
        out.kind = JsonScalar::Kind::Bool;
        out.boolean = token == "true";
        return true;
    }
    if (token == "null") {
        out.kind = JsonScalar::Kind::Null;
        return true;
    }
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size() ||
        !std::isfinite(value)) {
        error = "malformed value '" + token + "'";
        return false;
    }
    out.kind = JsonScalar::Kind::Number;
    out.number = value;
    out.text = token;
    return true;
}

/** Fetch a required/optional key with a required type, erroring with
 *  the command name for context. */
const JsonScalar *
findKey(const JsonObject &object, const std::string &key)
{
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

bool
takeJob(const JsonObject &object, Request &request, std::string &error)
{
    const JsonScalar *job = findKey(object, "job");
    if (job == nullptr)
        return true;
    if (job->kind != JsonScalar::Kind::Number ||
        job->number < 0 || job->number >= kJobIdLimit ||
        job->number != std::floor(job->number)) {
        error = "\"job\" must be a non-negative integer below 2^53";
        return false;
    }
    request.hasJob = true;
    request.job = static_cast<std::uint64_t>(job->number);
    return true;
}

std::string
formatNumber(double value)
{
    // Job ids and byte counts are integral; timeouts are not. %g
    // keeps both readable and round-trippable at protocol scale.
    char buffer[32];
    if (value == std::floor(value) && std::fabs(value) < 1e15)
        std::snprintf(buffer, sizeof buffer, "%.0f", value);
    else
        std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

} // namespace

bool
parseFlatJsonObject(const std::string &line, JsonObject &out,
                    std::string &error)
{
    out.clear();
    Cursor cur{line};
    cur.skipSpace();
    if (!cur.consume('{')) {
        error = "a request is one flat JSON object per line";
        return false;
    }
    cur.skipSpace();
    if (cur.consume('}')) {
        cur.skipSpace();
        if (!cur.atEnd()) {
            error = "trailing bytes after the object";
            return false;
        }
        return true;
    }
    for (;;) {
        cur.skipSpace();
        std::string key;
        if (!parseJsonString(cur, key, error))
            return false;
        cur.skipSpace();
        if (!cur.consume(':')) {
            error = "expected ':' after key \"" + key + "\"";
            return false;
        }
        JsonScalar value;
        if (!parseJsonScalar(cur, value, error))
            return false;
        if (!out.emplace(key, std::move(value)).second) {
            error = "duplicate key \"" + key + "\"";
            return false;
        }
        cur.skipSpace();
        if (cur.consume(','))
            continue;
        if (cur.consume('}'))
            break;
        error = "expected ',' or '}' after the value of \"" + key +
                "\"";
        return false;
    }
    cur.skipSpace();
    if (!cur.atEnd()) {
        error = "trailing bytes after the object";
        return false;
    }
    return true;
}

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
    case RequestKind::Submit:
        return "submit";
    case RequestKind::Status:
        return "status";
    case RequestKind::Cancel:
        return "cancel";
    case RequestKind::Results:
        return "results";
    case RequestKind::Drain:
        return "drain";
    case RequestKind::Metrics:
        return "metrics";
    }
    return "unknown";
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    JsonObject object;
    if (!parseFlatJsonObject(line, object, error))
        return false;

    const JsonScalar *cmd = findKey(object, "cmd");
    if (cmd == nullptr || cmd->kind != JsonScalar::Kind::String) {
        error = "every request needs a string \"cmd\" key";
        return false;
    }

    Request request;
    if (cmd->text == "submit") {
        request.kind = RequestKind::Submit;
        const JsonScalar *spec = findKey(object, "spec");
        if (spec == nullptr ||
            spec->kind != JsonScalar::Kind::String ||
            spec->text.empty()) {
            error = "submit needs a non-empty string \"spec\" "
                    "(sbn_sweep-style flags)";
            return false;
        }
        request.spec = spec->text;
        if (const JsonScalar *timeout =
                findKey(object, "timeout_s")) {
            if (timeout->kind != JsonScalar::Kind::Number ||
                timeout->number < 0) {
                error = "\"timeout_s\" must be a non-negative number";
                return false;
            }
            request.timeoutSeconds = timeout->number;
        }
    } else if (cmd->text == "status" || cmd->text == "metrics") {
        // Both take an optional job id: bare = whole-daemon summary
        // or metrics snapshot, with "job" = one job's view.
        request.kind = cmd->text == "status" ? RequestKind::Status
                                             : RequestKind::Metrics;
        if (!takeJob(object, request, error))
            return false;
    } else if (cmd->text == "cancel" || cmd->text == "results") {
        request.kind = cmd->text == "cancel" ? RequestKind::Cancel
                                             : RequestKind::Results;
        if (!takeJob(object, request, error))
            return false;
        if (!request.hasJob) {
            error = cmd->text + " needs a \"job\" id";
            return false;
        }
    } else if (cmd->text == "drain") {
        request.kind = RequestKind::Drain;
    } else {
        error = "unknown cmd \"" + cmd->text + "\"";
        return false;
    }
    out = request;
    return true;
}

std::string
formatRequest(const Request &request)
{
    std::string line = "{\"cmd\":\"";
    line += requestKindName(request.kind);
    line += '"';
    if (request.kind == RequestKind::Submit) {
        line += ",\"spec\":\"" + jsonEscape(request.spec) + "\"";
        if (request.timeoutSeconds > 0)
            line += ",\"timeout_s\":" +
                    formatNumber(request.timeoutSeconds);
    }
    if (request.hasJob)
        line += ",\"job\":" +
                formatNumber(static_cast<double>(request.job));
    line += '}';
    return line;
}

std::string
errorResponse(const std::string &code, const std::string &message)
{
    return "{\"ok\":false,\"error\":\"" + jsonEscape(code) +
           "\",\"message\":\"" + jsonEscape(message) + "\"}";
}

} // namespace sbn
