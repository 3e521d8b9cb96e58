#include "serve/line_server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <list>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/strings.h"

namespace vdram {

namespace {

using Clock = std::chrono::steady_clock;

/** Every blocking wait polls in slices of this length, so a stop flag
 *  or an idle clock is observed within one slice. */
constexpr int kPollMs = 200;

bool
stopRequested(const LineServerOptions& options)
{
    return options.stopFlag &&
           options.stopFlag->load(std::memory_order_relaxed);
}

std::string
errnoText()
{
    return std::strerror(errno);
}

/** A unix-domain or TCP socket address; `any` is what the socket
 *  calls take. */
union SocketAddress {
    sockaddr any;
    sockaddr_un local;
    sockaddr_in inet;
};

/** The address of unix socket @p path, or of loopback TCP @p port when
 *  the path is empty. False when the path does not fit. */
bool
fillAddress(const std::string& path, int port, SocketAddress& addr,
            socklen_t& length)
{
    addr = SocketAddress{};
    if (!path.empty()) {
        if (path.size() >= sizeof(addr.local.sun_path))
            return false;
        addr.local.sun_family = AF_UNIX;
        std::memcpy(addr.local.sun_path, path.c_str(), path.size() + 1);
        length = sizeof(addr.local);
        return true;
    }
    addr.inet.sin_family = AF_INET;
    addr.inet.sin_port = htons(static_cast<std::uint16_t>(port));
    // Loopback only: the protocol is unauthenticated and must never be
    // reachable from off-host.
    addr.inet.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    length = sizeof(addr.inet);
    return true;
}

std::string
describeEndpoint(const std::string& path, int port)
{
    return path.empty() ? "loopback port " + std::to_string(port)
                        : "'" + path + "'";
}

Result<int>
openListener(const LineServerOptions& options)
{
    const std::string& path = options.socketPath;
    const std::string& code = options.errorCode;
    if (path.empty() && options.port <= 0) {
        return Error{options.name + " needs --socket=PATH or --port=N", 0,
                     0, "", code};
    }
    SocketAddress addr{};
    socklen_t length = 0;
    if (!fillAddress(path, options.port, addr, length))
        return Error{"socket path too long: " + path, 0, 0, path, code};
    const std::string where = describeEndpoint(path, options.port);
    int fd = ::socket(addr.any.sa_family, SOCK_STREAM, 0);
    if (fd < 0) {
        return Error{"cannot create a socket for " + where + ": " +
                         errnoText(),
                     0, 0, path, code};
    }
    if (path.empty()) {
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    } else {
        // The daemon owns its socket path: a stale file from a killed
        // predecessor must not prevent startup.
        ::unlink(path.c_str());
    }
    if (::bind(fd, &addr.any, length) != 0 ||
        ::listen(fd, 64) != 0) {
        Error error{"cannot listen on " + where + ": " + errnoText(), 0, 0,
                    path, code};
        ::close(fd);
        return error;
    }
    return fd;
}

/** One connection, on its own thread: frame lines, hand them to the
 *  handler, evict on idleness, quarantine exceptions. */
void
runSession(const LineServerOptions& options, int fd,
           std::unique_ptr<LineSession> session)
{
    std::string buffer;
    double idleSeconds = 0;
    bool eof = false;
    // A handler bug or an injected crash tears down THIS connection,
    // never the server.
    try {
        for (;;) {
            size_t pos;
            bool writable = true;
            while (writable &&
                   (pos = buffer.find('\n')) != std::string::npos) {
                std::string line = buffer.substr(0, pos);
                buffer.erase(0, pos + 1);
                writable = session->onLine(line);
            }
            if (!writable)
                break;
            if (stopRequested(options))
                break; // drain: everything read has been answered
            if (eof) {
                // Half-close: a final unterminated line still counts.
                if (!trim(buffer).empty())
                    session->onLine(buffer);
                break;
            }
            pollfd pfd{fd, POLLIN, 0};
            int ready = ::poll(&pfd, 1, kPollMs);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (ready == 0) {
                idleSeconds += kPollMs / 1000.0;
                if (options.idleSessionSeconds > 0 &&
                    idleSeconds >= options.idleSessionSeconds) {
                    if (options.onIdleEvicted)
                        options.onIdleEvicted();
                    break;
                }
                continue;
            }
            char chunk[4096];
            ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
            if (got < 0) {
                if (errno == EINTR || errno == EAGAIN)
                    continue;
                break;
            }
            if (got == 0) {
                eof = true;
                continue;
            }
            idleSeconds = 0;
            buffer.append(chunk, static_cast<size_t>(got));
        }
    } catch (...) {
        if (options.onSessionFault)
            options.onSessionFault();
    }
    ::close(fd);
    session.reset();
}

Error
clientError(const std::string& message)
{
    return Error{message, 0, 0, "", "E-SERVE-SOCKET"};
}

} // namespace

Status
runLineServer(const LineServerOptions& options)
{
    Result<int> listener = openListener(options);
    if (!listener.ok())
        return listener.error();
    const int listenFd = listener.value();

    if (options.onReady)
        options.onReady();

    // A list, so each session's `finished` flag keeps its address.
    struct Running {
        std::thread thread;
        std::atomic<bool> finished{false};
    };
    std::list<Running> sessions;
    // Join the sessions that have ended: an ended but unjoined thread
    // keeps its whole stack mapped, so a daemon serving many short
    // connections would otherwise grow by one stack per connection.
    auto joinFinished = [&sessions] {
        for (auto it = sessions.begin(); it != sessions.end();) {
            if (!it->finished.load(std::memory_order_acquire)) {
                ++it;
                continue;
            }
            it->thread.join();
            it = sessions.erase(it);
        }
    };
    while (!stopRequested(options)) {
        joinFinished();
        pollfd pfd{listenFd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, kPollMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break; // listener died; drain what we have
        }
        if (ready == 0)
            continue;
        int client = ::accept(listenFd, nullptr, nullptr);
        if (client < 0)
            continue; // transient accept failure; the server lives
        std::unique_ptr<LineSession> session = options.openSession(client);
        Running& running = sessions.emplace_back();
        running.thread = std::thread(
            [&options, &running, client,
             session = std::move(session)]() mutable {
                runSession(options, client, std::move(session));
                running.finished.store(true, std::memory_order_release);
            });
    }

    // Drain: stop accepting; each session answers what it has read and
    // closes within one poll slice of the stop flag.
    ::close(listenFd);
    if (!options.socketPath.empty())
        ::unlink(options.socketPath.c_str());
    for (Running& session : sessions)
        session.thread.join();
    return Status::okStatus();
}

bool
sendAll(int fd, const char* data, std::size_t size)
{
    size_t sent = 0;
    while (sent < size) {
        // MSG_NOSIGNAL: a vanished peer is EPIPE here, not a SIGPIPE.
        ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
sendLine(int fd, const std::string& body)
{
    std::string line;
    line.reserve(body.size() + 1);
    line += body;
    line += '\n';
    return sendAll(fd, line.data(), line.size());
}

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_))
{
}

LineClient&
LineClient::operator=(LineClient&& other) noexcept
{
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        buffer_ = std::move(other.buffer_);
    }
    return *this;
}

LineClient::~LineClient()
{
    close();
}

void
LineClient::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    buffer_.clear();
}

Status
LineClient::connect(const std::string& socketPath, int port,
                    double timeoutSeconds)
{
    close();
    if (socketPath.empty() && port <= 0)
        return clientError("no socket path or port to connect to");
    SocketAddress addr{};
    socklen_t length = 0;
    if (!fillAddress(socketPath, port, addr, length)) {
        return Error{"socket path too long: " + socketPath, 0, 0,
                     socketPath, "E-SERVE-SOCKET"};
    }
    const std::string where = describeEndpoint(socketPath, port);
    int fd = ::socket(addr.any.sa_family, SOCK_STREAM, 0);
    if (fd < 0) {
        return clientError("cannot create a socket for " + where + ": " +
                           errnoText());
    }
    auto fail = [&](int err, const std::string& why) -> Error {
        ::close(fd);
        // Refused (or, for a unix socket, no socket file) means no
        // request reached a daemon: the one failure a client may
        // safely retry.
        const bool refused =
            err == ECONNREFUSED || (!socketPath.empty() && err == ENOENT);
        return Error{"cannot connect to " + where + ": " + why, 0, 0,
                     socketPath,
                     refused ? "E-SERVE-REFUSED" : "E-SERVE-SOCKET"};
    };

    // A deadline needs a non-blocking connect: a wedged or not yet
    // listening peer must not block the caller past it.
    const int flags = timeoutSeconds > 0 ? ::fcntl(fd, F_GETFL, 0) : 0;
    if (timeoutSeconds > 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd, &addr.any, length) != 0) {
        const int err = errno;
        if (timeoutSeconds <= 0 || (err != EINPROGRESS && err != EAGAIN))
            return fail(err, std::strerror(err));
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, static_cast<int>(timeoutSeconds * 1000) + 1) <=
            0)
            return fail(ETIMEDOUT, "timed out");
        int soError = 0;
        socklen_t soLength = sizeof(soError);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &soLength) !=
            0)
            soError = errno;
        if (soError != 0)
            return fail(soError, std::strerror(soError));
    }
    if (timeoutSeconds > 0)
        ::fcntl(fd, F_SETFL, flags);
    fd_ = fd;
    return Status::okStatus();
}

Status
LineClient::sendLine(const std::string& line)
{
    if (!vdram::sendLine(fd_, line))
        return clientError("write failed: " + errnoText());
    return Status::okStatus();
}

Result<std::string>
LineClient::readLine(double timeoutSeconds)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeoutSeconds));
    for (;;) {
        const size_t pos = buffer_.find('\n');
        if (pos != std::string::npos) {
            std::string line = buffer_.substr(0, pos);
            buffer_.erase(0, pos + 1);
            return line;
        }
        int waitMs = kPollMs;
        if (timeoutSeconds > 0) {
            const double left =
                std::chrono::duration<double>(deadline - Clock::now())
                    .count();
            if (left <= 0)
                return clientError("no response line in time");
            waitMs = std::min(waitMs, static_cast<int>(left * 1000) + 1);
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, waitMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return clientError("poll failed: " + errnoText());
        }
        if (ready == 0)
            continue;
        char chunk[4096];
        const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
        if (got < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            return clientError("read failed: " + errnoText());
        }
        if (got == 0)
            return clientError("connection closed before a response line");
        buffer_.append(chunk, static_cast<size_t>(got));
    }
}

Result<std::string>
LineClient::sendAllReadAll(const std::string& input)
{
    std::string responses = std::move(buffer_);
    auto fail = [this](const char* what) -> Error {
        Error error = clientError(what + errnoText());
        close();
        return error;
    };
    size_t sent = 0;
    if (input.empty())
        ::shutdown(fd_, SHUT_WR);
    char chunk[4096];
    for (;;) {
        pollfd pfd{fd_, POLLIN, 0};
        if (sent < input.size())
            pfd.events |= POLLOUT;
        if (::poll(&pfd, 1, -1) < 0) {
            if (errno == EINTR)
                continue;
            return fail("socket poll failed: ");
        }
        if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
            ssize_t got = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
            if (got == 0)
                break;
            if (got > 0) {
                responses.append(chunk, static_cast<size_t>(got));
            } else if (errno != EINTR && errno != EAGAIN &&
                       errno != EWOULDBLOCK) {
                return fail("response read failed: ");
            }
        }
        if ((pfd.revents & POLLOUT) && sent < input.size()) {
            ssize_t n = ::send(fd_, input.data() + sent, input.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n >= 0) {
                sent += static_cast<size_t>(n);
                if (sent == input.size())
                    ::shutdown(fd_, SHUT_WR);
            } else if (errno != EINTR && errno != EAGAIN &&
                       errno != EWOULDBLOCK) {
                return fail("request write failed: ");
            }
        }
    }
    close();
    return responses;
}

} // namespace vdram
