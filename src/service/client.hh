/**
 * @file
 * Client side of the sbn_sweepd protocol: connect, send one request
 * line, read the response (and the raw results payload when there is
 * one). `sbn_sweep --connect=...` is a thin wrapper over this.
 */

#ifndef SBN_SERVICE_CLIENT_HH
#define SBN_SERVICE_CLIENT_HH

#include <cstdint>
#include <string>

#include "service/protocol.hh"

namespace sbn {

/** One parsed daemon response (+ raw results payload when present). */
struct ClientResponse
{
    std::string header;  //!< the response line as received, no newline
    JsonObject fields;   //!< the flat header/response object
    std::string payload; //!< results: the raw merged JSONL bytes

    bool ok() const;
    /** fields["error"] text, or "" when ok. */
    std::string errorCode() const;
    /** fields[key] as text ("" when absent); numbers keep their wire
     *  spelling. */
    std::string text(const std::string &key) const;
    /** fields[key] as a number (@p def when absent/not a number). */
    double number(const std::string &key, double def = 0) const;
};

/**
 * Blocking line-protocol connection to a daemon at 127.0.0.1.
 * @p endpoint is "PORT", "host:PORT", or a path to a daemon state
 * dir (the port is then read from its port file). Connection
 * failures are fatal with kExitUnavailable - the conventional
 * "service not up" exit for scripts to branch on.
 */
class DaemonClient
{
  public:
    explicit DaemonClient(const std::string &endpoint);
    ~DaemonClient();

    DaemonClient(const DaemonClient &) = delete;
    DaemonClient &operator=(const DaemonClient &) = delete;

    /**
     * Send @p request, read the one response line (strictly parsed),
     * and - for an ok "results" response - the exact `bytes` bytes
     * of payload that follow it. Fatal on transport errors or a
     * malformed response; protocol-level errors ({"ok":false,...})
     * are returned, not fatal.
     */
    ClientResponse call(const Request &request);

  private:
    std::string readLine();
    /** Append one read() of up to 64 KiB to inbox_; false at EOF. */
    bool readMore();

    int fd_ = -1;
    std::string inbox_; //!< bytes read from the daemon, not yet consumed
};

/** Resolve @p endpoint ("PORT", "host:PORT", state dir) to a port,
 *  fatally (kExitUnavailable) when a state dir has no port file. */
int resolveDaemonPort(const std::string &endpoint);

} // namespace sbn

#endif // SBN_SERVICE_CLIENT_HH
