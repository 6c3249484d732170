/**
 * @file
 * The sbn_sweepd wire protocol: line-delimited JSON requests and
 * responses over a byte stream (TCP).
 *
 * Every request is ONE flat JSON object on ONE line; every response
 * is one flat JSON object on one line, except `results`, whose
 * header line is followed by exactly `bytes` bytes of raw merged
 * JSONL payload (the job's point records, byte-identical to the
 * serial sweep). Flat means: string / number / boolean / null
 * values only, no nesting - which keeps the parser small, strict
 * and fuzzable, in the spirit of the record format
 * (shard/result_io.hh).
 *
 * Requests (the `cmd` key selects; docs/service.md has the full
 * grammar and examples):
 *
 *   {"cmd":"submit","spec":"--n=8 --m=16 --p=0.2,0.6 --spawn=2"}
 *       optional: "timeout_s": wall-clock budget for the job.
 *   {"cmd":"status"}            daemon + per-job summary
 *   {"cmd":"status","job":3}    one job
 *   {"cmd":"cancel","job":3}
 *   {"cmd":"results","job":3}
 *   {"cmd":"metrics"}           daemon metrics snapshot
 *   {"cmd":"metrics","job":3}   one job's metrics
 *   {"cmd":"drain"}
 *
 * Responses always carry "ok" (boolean). Failures carry a
 * machine-readable "error" code (bad_request, bad_spec, queue_full,
 * draining, unknown_job, not_ready, terminal_job) plus a
 * human-readable "message". The submit acknowledgment is written
 * only after the job is durably journaled (service/journal.hh).
 */

#ifndef SBN_SERVICE_PROTOCOL_HH
#define SBN_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "util/json.hh" // jsonEscape, for every protocol writer

namespace sbn {

/**
 * Most reply bytes the daemon buffers for one client (256 MiB); a
 * peer that lets more pile up unread is dropped. It also bounds every
 * legitimate results payload, so a client refuses a header promising
 * more instead of trying to allocate it.
 */
constexpr std::size_t kMaxOutbox = std::size_t(256) << 20;

/**
 * Job ids on the wire and in the journal stay below 2^53, the range
 * in which a double (the parser's number type) holds every integer
 * exactly. Checking it also keeps the cast to std::uint64_t defined,
 * which it is not for values >= 2^64.
 */
constexpr double kJobIdLimit = 9007199254740992.0;

/** One scalar value of a flat JSON object. */
struct JsonScalar
{
    enum class Kind
    {
        String,
        Number,
        Bool,
        Null,
    };

    Kind kind = Kind::Null;
    std::string text;    //!< String payload (unescaped)
    double number = 0.0; //!< Number payload
    bool boolean = false;
};

/** Key -> scalar map of one flat JSON object line. */
using JsonObject = std::map<std::string, JsonScalar>;

/**
 * Parse one flat JSON object. Strict: the whole line must be a
 * single `{...}` object of string keys and scalar values (string,
 * number, true/false/null); duplicate keys, nesting, trailing bytes
 * and malformed escapes are errors. Returns false and sets @p error.
 */
bool parseFlatJsonObject(const std::string &line, JsonObject &out,
                         std::string &error);

/** What a parsed request asks for. */
enum class RequestKind
{
    Submit,
    Status,
    Cancel,
    Results,
    Drain,
    Metrics,
};

/** Canonical wire name of a request kind ("submit", ...). */
const char *requestKindName(RequestKind kind);

/** One parsed client request. */
struct Request
{
    RequestKind kind = RequestKind::Status;
    std::string spec;          //!< submit: sbn_sweep-style flag string
    double timeoutSeconds = 0; //!< submit: 0 = no job timeout
    bool hasJob = false;       //!< a "job" key was supplied
    std::uint64_t job = 0;
};

/**
 * Parse one request line. Returns false with a human-readable
 * @p error on anything malformed: unknown cmd, missing/extra keys
 * for that cmd, wrong types, negative, non-integral or too large
 * (>= kJobIdLimit) job ids.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

/** Serialize @p request back to its canonical wire line (no
 *  newline). Inverse of parseRequest for valid requests. */
std::string formatRequest(const Request &request);

/** `{"ok":false,"error":code,"message":...}` (no newline). */
std::string errorResponse(const std::string &code,
                          const std::string &message);

} // namespace sbn

#endif // SBN_SERVICE_PROTOCOL_HH
