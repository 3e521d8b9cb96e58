/**
 * @file
 * Minimal POSIX subprocess helper: spawn, signal, and (non-)blocking
 * reap, plus an async-signal-safe SIGCHLD notifier.
 *
 * Written for the fleet supervisor (src/serve/supervisor.h), which
 * owns a set of `vdram serve` worker daemons and must learn about a
 * worker death promptly (SIGCHLD bumps a counter the supervisor polls)
 * without ever blocking its control loop (reap with WNOHANG). The
 * helper is deliberately small — argv-vector exec, optional stderr
 * redirection, no shell.
 */
#ifndef VDRAM_UTIL_SUBPROCESS_H
#define VDRAM_UTIL_SUBPROCESS_H

#include <string>
#include <vector>

#include "util/result.h"

namespace vdram {

/** How to launch the child. */
struct SpawnOptions {
    /** argv[0] is the executable path; no shell interpretation. */
    std::vector<std::string> argv;
    /** Append the child's stderr to this file; empty inherits ours. */
    std::string stderrPath;
};

/**
 * Fork + exec. Returns the child pid. A failed exec inside the child
 * exits with status 127 (observed through reapProcess, exactly like a
 * crashed worker), so spawn itself only fails on fork/setup errors.
 */
Result<long long> spawnProcess(const SpawnOptions& options);

/** Terminal state of a reaped child. */
struct ReapResult {
    /** False when the child is still running (non-blocking reap). */
    bool exited = false;
    /** Exit code when the child exited normally; -1 otherwise. */
    int exitCode = -1;
    /** Terminating signal when killed (e.g. 9 for kill -9); 0 else. */
    int termSignal = 0;
};

/**
 * waitpid wrapper. @p block false polls with WNOHANG (never blocks,
 * `exited == false` when the child is still running); true waits.
 * EINTR is retried internally. Reaping an already-reaped or unknown
 * pid is an error (E-SUBPROCESS).
 */
Result<ReapResult> reapProcess(long long pid, bool block);

/** kill(2) wrapper; @p signal e.g. SIGTERM, SIGKILL. */
Status signalProcess(long long pid, int signal);

/**
 * Install a SIGCHLD handler that bumps an internal counter (and
 * nothing else — async-signal-safe). Children are still reaped
 * explicitly via reapProcess; the counter is a wake-up hint so a
 * supervisor polling sigchldEvents() notices a death within one loop
 * iteration instead of one full heartbeat period.
 */
void installSigchldNotifier();

/** SIGCHLD deliveries since installSigchldNotifier(). */
long long sigchldEvents();

} // namespace vdram

#endif // VDRAM_UTIL_SUBPROCESS_H
