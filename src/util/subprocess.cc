#include "util/subprocess.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace vdram {

namespace {

std::atomic<long long> g_sigchld_events{0};

extern "C" void
onSigchld(int)
{
    // Async-signal-safe: one relaxed increment, nothing else. Reaping
    // happens in the supervisor loop, never in the handler.
    g_sigchld_events.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Result<long long>
spawnProcess(const SpawnOptions& options)
{
    if (options.argv.empty() || options.argv[0].empty()) {
        return Error{"spawn needs a non-empty argv", 0, 0, "",
                     "E-SUBPROCESS"};
    }
    std::vector<char*> argv;
    argv.reserve(options.argv.size() + 1);
    for (const std::string& arg : options.argv)
        argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        return Error{std::string("fork failed: ") + std::strerror(errno),
                     0, 0, "", "E-SUBPROCESS"};
    }
    if (pid == 0) {
        // Child. Only async-signal-safe calls until exec.
        if (!options.stderrPath.empty()) {
            int fd = ::open(options.stderrPath.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 2);
                if (fd != 2)
                    ::close(fd);
            }
        }
        // Drop every inherited descriptor beyond stdio. Without this a
        // respawned worker keeps duplicates of the parent's sockets
        // alive — a fleet client whose session the router has closed
        // would never see EOF because the worker still holds the fd.
#if defined(__linux__) && defined(SYS_close_range)
        if (::syscall(SYS_close_range, 3u, ~0u, 0u) != 0)
#endif
        {
            long max_fd = ::sysconf(_SC_OPEN_MAX);
            if (max_fd < 0 || max_fd > 65536)
                max_fd = 65536;
            for (int fd = 3; fd < max_fd; ++fd)
                ::close(fd);
        }
        ::execv(argv[0], argv.data());
        // Exec failed: report through the exit status (127, the shell
        // convention for "command not found/executable").
        _exit(127);
    }
    return static_cast<long long>(pid);
}

Result<ReapResult>
reapProcess(long long pid, bool block)
{
    int status = 0;
    for (;;) {
        pid_t got = ::waitpid(static_cast<pid_t>(pid), &status,
                              block ? 0 : WNOHANG);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return Error{std::string("waitpid failed: ") +
                             std::strerror(errno),
                         0, 0, "", "E-SUBPROCESS"};
        }
        if (got == 0)
            return ReapResult{}; // still running (WNOHANG)
        break;
    }
    ReapResult result;
    result.exited = true;
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        result.termSignal = WTERMSIG(status);
    return result;
}

Status
signalProcess(long long pid, int signal)
{
    if (::kill(static_cast<pid_t>(pid), signal) != 0) {
        return Error{std::string("kill failed: ") + std::strerror(errno),
                     0, 0, "", "E-SUBPROCESS"};
    }
    return Status::okStatus();
}

void
installSigchldNotifier()
{
    struct sigaction action {};
    action.sa_handler = onSigchld;
    ::sigemptyset(&action.sa_mask);
    // SA_RESTART: the notifier must not turn every slow read in the
    // process into an EINTR storm; loops that do care poll the counter.
    action.sa_flags = SA_RESTART | SA_NOCLDSTOP;
    ::sigaction(SIGCHLD, &action, nullptr);
}

long long
sigchldEvents()
{
    return g_sigchld_events.load(std::memory_order_relaxed);
}

} // namespace vdram
