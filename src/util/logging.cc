#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <atomic>

namespace vdram {

namespace {
std::atomic<bool> quiet{false};
} // namespace

void
panic(const std::string& message)
{
    std::fprintf(stderr, "panic: %s\n", message.c_str());
    std::abort();
}

void
fatal(const std::string& message)
{
    std::fprintf(stderr, "fatal: %s\n", message.c_str());
    std::exit(1);
}

void
warn(const std::string& message)
{
    if (!quiet.load(std::memory_order_relaxed))
        std::fprintf(stderr, "warn: %s\n", message.c_str());
}

void
setQuiet(bool q)
{
    quiet.store(q, std::memory_order_relaxed);
}

} // namespace vdram
