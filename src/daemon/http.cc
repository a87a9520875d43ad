#include "daemon/http.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace reqisc::daemon
{

namespace
{

/** Pending connections the kernel queues before accept(). */
constexpr int kBacklog = 64;
/** Cap on the request line + headers (malformed-client guard). */
constexpr std::size_t kMaxHeaderBytes = 16u << 10;
/** Per-socket receive/send timeout, seconds. */
constexpr int kIoTimeoutSeconds = 10;

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

const char *
statusText(int status)
{
    switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
    }
}

/** Blocking full write (the socket has a send timeout). */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

const std::string *
HttpRequest::header(const std::string &name) const
{
    const std::string key = toLower(name);
    for (const auto &[n, v] : headers)
        if (n == key)
            return &v;
    return nullptr;
}

HttpServer::HttpServer(HttpServerOptions opts, Handler handler,
                       ErrorBody errorBody)
    : opts_(std::move(opts)), handler_(std::move(handler)),
      errorBody_(std::move(errorBody))
{
}

HttpServer::~HttpServer()
{
    stop();
}

bool
HttpServer::start(std::string &error)
{
    // Non-blocking, so a handler that loses the race for a
    // connection another handler accepted first gets EAGAIN instead
    // of blocking in accept() past stop().
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listenFd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) !=
        1) {
        error = "invalid listen address '" + opts_.host + "'";
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        error = std::string("bind: ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::listen(listenFd_, kBacklog) < 0) {
        error = std::string("listen: ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        port_ = ntohs(bound.sin_port);
    stopping_.store(false);
    const int n = std::max(1, opts_.handlerThreads);
    handlers_.reserve(n);
    for (int i = 0; i < n; ++i)
        handlers_.emplace_back([this] { handlerLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (handlers_.empty())
        return;  // never started, or already stopped
    stopping_.store(true);
    for (std::thread &t : handlers_)
        if (t.joinable())
            t.join();
    handlers_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
HttpServer::handlerLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        if (::poll(&pfd, 1, 100 /* ms */) <= 0)
            continue;  // timeout (re-check stopping_) or EINTR
        sockaddr_in peer{};
        socklen_t len = sizeof(peer);
        // Linux does not carry O_NONBLOCK over to the accepted socket.
        const int fd = ::accept(
            listenFd_, reinterpret_cast<sockaddr *>(&peer), &len);
        if (fd < 0)
            continue;  // another handler took it, or the peer left
        timeval tv{};
        tv.tv_sec = kIoTimeoutSeconds;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        char ip[INET_ADDRSTRLEN] = "?";
        ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
        serveConnection(fd, std::string(ip) + ":" +
                                std::to_string(ntohs(peer.sin_port)));
        ::close(fd);
    }
}

HttpResponse
HttpServer::makeError(int status, const std::string &message)
{
    HttpResponse res;
    res.status = status;
    res.body = errorBody_(status, message);
    return res;
}

void
HttpServer::sendResponse(int fd, const HttpResponse &res)
{
    std::string out = "HTTP/1.1 " + std::to_string(res.status) + " " +
                      statusText(res.status) + "\r\n";
    out += "Content-Type: " + res.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(res.body.size()) +
           "\r\n";
    for (const auto &[name, value] : res.headers)
        out += name + ": " + value + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += res.body;
    writeAll(fd, out);
}

void
HttpServer::serveConnection(int fd, const std::string &peer)
{
    // ---- read the request head (line + headers) -----------------------
    std::string buf;
    std::size_t headEnd = std::string::npos;
    char chunk[4096];
    while (headEnd == std::string::npos) {
        if (buf.size() > kMaxHeaderBytes) {
            sendResponse(fd,
                         makeError(431, "request head too large"));
            return;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return;  // peer went away or socket timed out
        buf.append(chunk, static_cast<std::size_t>(n));
        headEnd = buf.find("\r\n\r\n");
    }

    HttpRequest req;
    req.peer = peer;
    {
        const std::string head = buf.substr(0, headEnd);
        std::size_t pos = 0;
        bool firstLine = true;
        while (pos <= head.size()) {
            std::size_t eol = head.find("\r\n", pos);
            if (eol == std::string::npos)
                eol = head.size();
            const std::string line = head.substr(pos, eol - pos);
            pos = eol + 2;
            if (firstLine) {
                firstLine = false;
                const std::size_t sp1 = line.find(' ');
                const std::size_t sp2 =
                    sp1 == std::string::npos
                        ? std::string::npos
                        : line.find(' ', sp1 + 1);
                if (sp2 == std::string::npos ||
                    line.compare(sp2 + 1, 8, "HTTP/1.1") != 0) {
                    sendResponse(
                        fd, makeError(400, "malformed request line"));
                    return;
                }
                req.method = line.substr(0, sp1);
                req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
            } else if (!line.empty()) {
                const std::size_t colon = line.find(':');
                if (colon == std::string::npos) {
                    sendResponse(fd,
                                 makeError(400, "malformed header"));
                    return;
                }
                req.headers.emplace_back(
                    toLower(trim(line.substr(0, colon))),
                    trim(line.substr(colon + 1)));
            }
            if (eol == head.size())
                break;
        }
    }
    if (req.header("transfer-encoding")) {
        sendResponse(
            fd, makeError(501, "transfer-encoding not supported"));
        return;
    }

    // ---- read the body (Content-Length framing) -----------------------
    std::size_t contentLength = 0;
    if (const std::string *cl = req.header("content-length")) {
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(cl->c_str(), &end, 10);
        if (end == cl->c_str() || *end != '\0') {
            sendResponse(fd,
                         makeError(400, "malformed content-length"));
            return;
        }
        contentLength = static_cast<std::size_t>(parsed);
    }
    if (contentLength > opts_.maxBodyBytes) {
        // Reject before reading: the client may be mid-upload, so
        // close without draining (Connection: close makes that
        // legitimate).
        sendResponse(fd, makeError(413, "request body too large"));
        return;
    }
    if (const std::string *expect = req.header("expect")) {
        if (toLower(*expect) == "100-continue" &&
            !writeAll(fd, "HTTP/1.1 100 Continue\r\n\r\n"))
            return;
    }
    req.body = buf.substr(headEnd + 4);
    while (req.body.size() < contentLength) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return;
        req.body.append(chunk, static_cast<std::size_t>(n));
    }
    if (req.body.size() > contentLength)
        req.body.resize(contentLength);  // ignore pipelined extra

    // ---- dispatch -----------------------------------------------------
    HttpResponse res;
    try {
        res = handler_(req);
    } catch (const std::exception &e) {
        res = makeError(500, e.what());
    } catch (...) {
        res = makeError(500, "unknown handler error");
    }
    sendResponse(fd, res);
}

const std::string *
HttpClientResponse::header(const std::string &name) const
{
    const std::string key = toLower(name);
    for (const auto &[n, v] : headers)
        if (n == key)
            return &v;
    return nullptr;
}

bool
httpRequest(
    const std::string &host, int port, const std::string &method,
    const std::string &target, const std::string &body,
    const std::vector<std::pair<std::string, std::string>> &headers,
    HttpClientResponse &out, std::string &error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        error = "invalid address '" + host + "'";
        ::close(fd);
        return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    std::string req = method + " " + target + " HTTP/1.1\r\n";
    req += "Host: " + host + "\r\n";
    for (const auto &[name, value] : headers)
        req += name + ": " + value + "\r\n";
    if (!body.empty() || method == "POST")
        req += "Content-Length: " + std::to_string(body.size()) +
               "\r\n";
    req += "Connection: close\r\n\r\n";
    req += body;
    if (!writeAll(fd, req)) {
        error = "send failed";
        ::close(fd);
        return false;
    }
    std::string response;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const std::size_t headEnd = response.find("\r\n\r\n");
    if (headEnd == std::string::npos) {
        error = "malformed response (no header terminator)";
        return false;
    }
    // Status line: HTTP/1.1 NNN Reason
    const std::size_t sp = response.find(' ');
    if (sp == std::string::npos || sp + 4 > headEnd) {
        error = "malformed status line";
        return false;
    }
    out.status = std::atoi(response.c_str() + sp + 1);
    out.headers.clear();
    std::size_t pos = response.find("\r\n") + 2;
    while (pos < headEnd) {
        std::size_t eol = response.find("\r\n", pos);
        if (eol == std::string::npos || eol > headEnd)
            eol = headEnd;
        const std::string line = response.substr(pos, eol - pos);
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            out.headers.emplace_back(
                toLower(trim(line.substr(0, colon))),
                trim(line.substr(colon + 1)));
        pos = eol + 2;
    }
    out.body = response.substr(headEnd + 4);
    return true;
}

} // namespace reqisc::daemon
