/**
 * @file
 * The one line-session transport under `vdram serve` and `vdram fleet`:
 * newline-delimited request/response sessions over a unix-domain socket
 * or a loopback-only TCP port.
 *
 * Server side (runLineServer). The serve worker and the fleet router
 * are two handlers on it; the transport rules they share live here:
 *
 *  - listen on a unix path (a stale socket file is unlinked first) or
 *    on loopback-only TCP (the protocol is unauthenticated);
 *  - the accept loop polls the stop flag every 200 ms; every accepted
 *    connection gets its own session thread, joined within one poll
 *    after its session ends;
 *  - line framing: one request per line; after the client half-closes,
 *    a final unterminated line is still answered;
 *  - a session silent for `idleSessionSeconds` is evicted;
 *  - an exception out of a handler closes that session only;
 *  - drain: when the stop flag rises the listener closes, every session
 *    answers what it has read, and every session thread is joined.
 *
 * Client side (LineClient): one connect (unix or loopback TCP, with an
 * optional deadline), line writes and one `readLine` with an optional
 * deadline. The router's backend exchange, the supervisor's heartbeat
 * probe and `serve-send` all use it.
 */
#ifndef VDRAM_SERVE_LINE_SERVER_H
#define VDRAM_SERVE_LINE_SERVER_H

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "util/result.h"

namespace vdram {

/** The request handler of one client connection. */
class LineSession {
  public:
    LineSession() = default;
    LineSession(const LineSession&) = delete;
    LineSession& operator=(const LineSession&) = delete;
    virtual ~LineSession() = default;
    /** Answer one request line (without its newline). Returns false
     *  once the client can no longer be written to; the session then
     *  closes. */
    virtual bool onLine(const std::string& line) = 0;
};

struct LineServerOptions {
    /** Unix-domain socket path; when empty, loopback TCP `port`. */
    std::string socketPath;
    int port = 0;
    /** Names the daemon in listener errors ("serve", "fleet"). */
    std::string name;
    /** Code of listener errors (E-SERVE-SOCKET, E-FLEET-SOCKET). */
    std::string errorCode;
    /** Close a session silent for this long (seconds; 0 = never). */
    double idleSessionSeconds = 300;
    /** Cooperative stop: drain and return once it rises. */
    const std::atomic<bool>* stopFlag = nullptr;
    /** Invoked once the listener is accepting. */
    std::function<void()> onReady;
    /** Called on the accept thread for each accepted connection @p fd;
     *  returns the handler that answers its lines. */
    std::function<std::unique_ptr<LineSession>(int fd)> openSession;
    /** Called when a session is closed for idleness. */
    std::function<void()> onIdleEvicted;
    /** Called when a handler throws; that session closes, the server
     *  lives. */
    std::function<void()> onSessionFault;
};

/**
 * Accept and run sessions until the stop flag rises, then drain and
 * join every session. Fails only when the listener cannot be opened.
 */
Status runLineServer(const LineServerOptions& options);

/** Write all @p size bytes to @p fd. False on a write error; a closed
 *  peer is an error, never a SIGPIPE. */
bool sendAll(int fd, const char* data, std::size_t size);

/** Write @p body and a newline to @p fd in one send; see sendAll. */
bool sendLine(int fd, const std::string& body);

/** One client connection speaking the line protocol. */
class LineClient {
  public:
    LineClient() = default;
    LineClient(LineClient&& other) noexcept;
    LineClient& operator=(LineClient&& other) noexcept;
    LineClient(const LineClient&) = delete;
    LineClient& operator=(const LineClient&) = delete;
    ~LineClient();

    /**
     * Connect to the unix socket @p socketPath, or to loopback TCP
     * @p port when the path is empty. A positive @p timeoutSeconds
     * bounds the connect. A connect that nothing listens to fails with
     * `E-SERVE-REFUSED` (nothing was delivered, so it is safe to retry);
     * every other failure is `E-SERVE-SOCKET`.
     */
    Status connect(const std::string& socketPath, int port,
                   double timeoutSeconds = 0);
    bool connected() const { return fd_ >= 0; }

    /** Send one request line (the newline is appended). */
    Status sendLine(const std::string& line);

    /** The next response line, without its newline. A positive
     *  @p timeoutSeconds bounds the wait; otherwise it waits until the
     *  peer answers or closes. */
    Result<std::string> readLine(double timeoutSeconds = 0);

    /**
     * Send all of @p input, half-close, and return every byte the peer
     * writes until it closes. Writes interleave with reads: the daemon
     * answers while the batch is still arriving, so writing all of a
     * large batch first would fill both socket buffers and deadlock.
     * @p idleTimeoutSeconds (> 0) bounds the time since the last byte
     * received; E-SERVE-TIMEOUT when it passes.
     */
    Result<std::string> sendAllReadAll(const std::string& input,
                                       double idleTimeoutSeconds);

  private:
    void close();

    int fd_ = -1;
    std::string buffer_; ///< bytes read past the last returned line
};

} // namespace vdram

#endif // VDRAM_SERVE_LINE_SERVER_H
