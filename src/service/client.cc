#include "service/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "service/daemon.hh"
#include "shard/result_io.hh"
#include "util/exit_codes.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

/** "service unavailable" death: structured stderr + kExitUnavailable,
 *  so scripts can branch on "daemon not up" without text matching. */
[[noreturn]] void
dieUnavailable(const std::string &what)
{
    std::fprintf(stderr, "sbn_sweepd-client: unavailable: %s\n",
                 what.c_str());
    std::exit(kExitUnavailable);
}

bool
allDigits(const std::string &text)
{
    if (text.empty())
        return false;
    for (const char c : text)
        if (c < '0' || c > '9')
            return false;
    return true;
}

} // namespace

bool
ClientResponse::ok() const
{
    const auto it = fields.find("ok");
    return it != fields.end() &&
           it->second.kind == JsonScalar::Kind::Bool &&
           it->second.boolean;
}

std::string
ClientResponse::errorCode() const
{
    if (ok())
        return "";
    const auto it = fields.find("error");
    return it == fields.end() ? "" : it->second.text;
}

std::string
ClientResponse::text(const std::string &key) const
{
    const auto it = fields.find(key);
    return it == fields.end() ? "" : it->second.text;
}

double
ClientResponse::number(const std::string &key, double def) const
{
    const auto it = fields.find(key);
    if (it == fields.end() ||
        it->second.kind != JsonScalar::Kind::Number)
        return def;
    return it->second.number;
}

int
resolveDaemonPort(const std::string &endpoint)
{
    std::string portText = endpoint;
    if (const std::size_t colon = endpoint.rfind(':');
        colon != std::string::npos) {
        const std::string host = endpoint.substr(0, colon);
        if (host != "127.0.0.1" && host != "localhost")
            dieUnavailable("the daemon only listens on loopback; "
                           "cannot reach host '" +
                           host + "'");
        portText = endpoint.substr(colon + 1);
    }
    if (!allDigits(portText)) {
        // Not a port: treat the endpoint as a daemon state dir and
        // read the published port file.
        const std::string path = daemonPortFilePath(endpoint);
        std::ifstream in(path);
        if (!in.is_open())
            dieUnavailable("no port file at " + path +
                           " (daemon not started, or wrong "
                           "--connect)");
        in >> portText;
        if (!allDigits(portText))
            dieUnavailable("malformed port file " + path);
    }
    const long port = std::strtol(portText.c_str(), nullptr, 10);
    if (port < 1 || port > 65535)
        dieUnavailable("port " + portText + " out of range");
    return static_cast<int>(port);
}

DaemonClient::DaemonClient(const std::string &endpoint)
{
    const int port = resolveDaemonPort(endpoint);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        dieUnavailable(std::string("cannot create socket: ") +
                       std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0)
        dieUnavailable("cannot connect to 127.0.0.1:" +
                       std::to_string(port) + ": " +
                       std::strerror(errno));
}

DaemonClient::~DaemonClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
DaemonClient::readMore()
{
    char buffer[65536];
    for (;;) {
        const ssize_t got = ::read(fd_, buffer, sizeof buffer);
        if (got > 0) {
            inbox_.append(buffer, static_cast<std::size_t>(got));
            return true;
        }
        if (got == 0)
            return false;
        if (errno != EINTR)
            sbn_fatal("daemon connection read failed: ",
                      std::strerror(errno));
    }
}

std::string
DaemonClient::readLine()
{
    std::size_t scanned = 0;
    for (;;) {
        const std::size_t newline = inbox_.find('\n', scanned);
        if (newline != std::string::npos) {
            std::string line = inbox_.substr(0, newline);
            inbox_.erase(0, newline + 1);
            return line;
        }
        scanned = inbox_.size();
        if (scanned > 1 << 20)
            sbn_fatal("daemon response line exceeds 1 MiB; protocol "
                      "violation");
        if (!readMore())
            sbn_fatal("daemon closed the connection mid-response "
                      "(it may have been killed; restart it and "
                      "retry - acknowledged jobs are journaled)");
    }
}

ClientResponse
DaemonClient::call(const Request &request)
{
    const std::string line = formatRequest(request) + "\n";
    if (!writeAll(fd_, line.data(), line.size()))
        sbn_fatal("daemon connection write failed: ",
                  std::strerror(errno));

    ClientResponse response;
    const std::string header = readLine();
    std::string error;
    if (!parseFlatJsonObject(header, response.fields, error))
        sbn_fatal("malformed daemon response '", header,
                  "': ", error);

    if (request.kind == RequestKind::Results && response.ok()) {
        const double bytes = response.number("bytes", -1);
        if (bytes < 0 || bytes != std::floor(bytes))
            sbn_fatal("results response carries no byte count: ",
                      header);
        // The daemon never queues a reply over kMaxOutbox, so a
        // larger promise is a broken peer - and the cast below is
        // only defined once the value is known to fit.
        if (bytes > static_cast<double>(kMaxOutbox))
            sbn_fatal("results header '", header,
                      "' promises more than the protocol's ",
                      kMaxOutbox >> 20, " MiB reply limit");
        const std::size_t size = static_cast<std::size_t>(bytes);
        std::string &payload = response.payload;
        payload.reserve(size);
        for (;;) {
            const std::size_t take =
                std::min(size - payload.size(), inbox_.size());
            payload.append(inbox_, 0, take);
            inbox_.erase(0, take);
            if (payload.size() == size)
                break;
            if (!readMore())
                sbn_fatal("daemon closed the connection ",
                          size - payload.size(),
                          " byte(s) short of the promised results "
                          "payload");
        }
    }
    return response;
}

} // namespace sbn
