/**
 * @file
 * Dependency-free HTTP/1.1 server for reqisc-compiled: a hand-rolled
 * POSIX socket loop and request parser, deliberately small because
 * the container build must not grow third-party dependencies.
 *
 * Model: one listener thread accepts connections (poll with a short
 * timeout so stop() is prompt) and hands the sockets to a fixed pool
 * of handler threads; each connection carries exactly one request
 * (every response says `Connection: close`). That trades keep-alive
 * throughput for a server with no connection state machine — the
 * right trade for a compile daemon whose requests are milliseconds
 * of framing around seconds of compilation.
 *
 * Protocol support is exactly what the daemon's clients need:
 * request line + headers + Content-Length body, `Expect:
 * 100-continue` (acknowledged before the body is read), and an
 * enforced body cap (the oversized request is rejected with 413 and
 * the connection dropped without reading the rest). Chunked
 * transfer-encoding is rejected as unsupported.
 */

#ifndef REQISC_DAEMON_HTTP_HH
#define REQISC_DAEMON_HTTP_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace reqisc::daemon
{

/** One parsed request. */
struct HttpRequest
{
    std::string method;  //!< "GET", "POST", "DELETE", ...
    std::string target;  //!< request target, e.g. "/v1/jobs/7"
    /** Header fields, names lowercased, in arrival order. */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
    /** Peer address ("ip:port") — its IP scopes the quota key. */
    std::string peer;

    /** Case-insensitive header lookup; nullptr when absent. */
    const std::string *header(const std::string &name) const;
};

/** One response; the server adds framing headers itself. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
    /** Extra headers (e.g. {"Retry-After", "2"}). */
    std::vector<std::pair<std::string, std::string>> headers;
};

struct HttpServerOptions
{
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (read it from port()). */
    int port = 0;
    int handlerThreads = 2;
    /** Reject request bodies larger than this with 413. */
    std::size_t maxBodyBytes = 4u << 20;
};

class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;
    /**
     * Formats the body of server-generated error responses (413,
     * 400 on a malformed request). Receives the status and a
     * one-line message; the daemon installs the JSON error shape
     * here so even framing errors speak the wire schema.
     */
    using ErrorBody = std::function<std::string(int status,
                                                const std::string &)>;

    HttpServer(HttpServerOptions opts, Handler handler);
    ~HttpServer();  //!< stop()s if still running

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Override the plain-text default for generated error bodies. */
    void setErrorBody(ErrorBody fn) { errorBody_ = std::move(fn); }

    /** Bind + listen + spawn threads. False (with error) on failure. */
    bool start(std::string &error);

    /** The bound port (the ephemeral one when options.port was 0). */
    int port() const { return port_; }

    /**
     * Stop accepting, finish requests already being handled, join
     * all threads. Idempotent.
     */
    void stop();

  private:
    void acceptLoop();
    void handlerLoop();
    void serveConnection(int fd, const std::string &peer);
    void sendResponse(int fd, const HttpResponse &res);
    HttpResponse makeError(int status, const std::string &message);

    HttpServerOptions opts_;
    Handler handler_;
    ErrorBody errorBody_;
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::vector<std::thread> handlers_;
    std::mutex mu_;
    std::condition_variable cv_;
    /** Accepted sockets waiting for a handler: {fd, peer}. */
    std::deque<std::pair<int, std::string>> conns_;
    bool started_ = false;
};

/** A client-side response (see httpRequest). */
struct HttpClientResponse
{
    int status = 0;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    const std::string *header(const std::string &name) const;
};

/**
 * Minimal blocking HTTP/1.1 client for the loopback uses in this
 * repo (tests, bench_daemon): one request per connection, reads to
 * EOF (the server always answers `Connection: close`). Returns
 * false and fills `error` on connect/IO/parse failure.
 */
bool httpRequest(
    const std::string &host, int port, const std::string &method,
    const std::string &target, const std::string &body,
    const std::vector<std::pair<std::string, std::string>> &headers,
    HttpClientResponse &out, std::string &error);

} // namespace reqisc::daemon

#endif // REQISC_DAEMON_HTTP_HH
