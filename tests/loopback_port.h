/**
 * @file
 * Test helper: a loopback TCP port that is free right now, for tests
 * that run a daemon on `--port`. The kernel picks the port (bind to
 * port 0); the probe socket is closed before the port is returned, so
 * a daemon can bind it next.
 */
#ifndef VDRAM_TESTS_LOOPBACK_PORT_H
#define VDRAM_TESTS_LOOPBACK_PORT_H

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace vdram {

/** A free loopback TCP port, or 0 when none could be had. */
inline int
freeLoopbackPort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return 0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    int port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
        port = ntohs(addr.sin_port);
    ::close(fd);
    return port;
}

} // namespace vdram

#endif // VDRAM_TESTS_LOOPBACK_PORT_H
