/**
 * @file
 * Crash-safe JSONL checkpointing for batch campaigns.
 *
 * Every finished task is appended to the checkpoint file as one JSON
 * object per line and flushed immediately, so a crash or SIGKILL loses
 * at most the record being written. The loader tolerates a truncated
 * trailing line for exactly that reason. When a run finishes (or drains
 * on SIGINT) the file is consolidated: rewritten in task order to a
 * temporary sibling and atomically renamed over the original, so readers
 * never observe a half-written file.
 */
#ifndef VDRAM_RUNNER_CHECKPOINT_H
#define VDRAM_RUNNER_CHECKPOINT_H

#include <concepts>
#include <cstdio>
#include <string>
#include <vector>

#include "util/result.h"

namespace vdram {

/**
 * Serialize doubles as a space-separated full-precision ("%.17g")
 * payload that round-trips bit-exactly through the checkpoint.
 */
std::string encodeDoublePayload(const std::vector<double>& values);

/** Inverse of encodeDoublePayload(); a token that is not a whole
 *  decimal number is E-CKPT-PAYLOAD. */
Result<std::vector<double>> decodeDoublePayload(const std::string& text);

/**
 * Text form of a runner payload type, used only at the checkpoint
 * boundary: encode() when a record is written, decode() on resume.
 * A type without a specialization is carried in memory only.
 */
template <typename P> struct PayloadCodec {};

template <> struct PayloadCodec<std::string> {
    static std::string encode(const std::string& payload) { return payload; }
    static Result<std::string> decode(const std::string& text)
    {
        return text;
    }
};

template <> struct PayloadCodec<std::vector<double>> {
    static std::string encode(const std::vector<double>& payload)
    {
        return encodeDoublePayload(payload);
    }
    static Result<std::vector<double>> decode(const std::string& text)
    {
        return decodeDoublePayload(text);
    }
};

/** Payload types a checkpoint can carry. */
template <typename P>
concept CheckpointablePayload = requires(const P& payload) {
    { PayloadCodec<P>::encode(payload) } -> std::same_as<std::string>;
};

/** One persisted task outcome (a line of the checkpoint file). */
struct TaskRecord {
    /** Index of the task in the campaign manifest. */
    long long task = -1;
    /** Manifest name of the task (for reports; not used for matching). */
    std::string name;
    /** "ok", "failed", "quarantined" or "timeout". */
    std::string status;
    /** Number of attempts the task took. */
    int attempts = 1;
    /** Opaque task output; only meaningful for "ok" records. */
    std::string payload;
    /** Error message; only meaningful for non-"ok" records. */
    std::string error;

    bool ok() const { return status == "ok"; }
};

/** Serialize a record as one JSON object (no trailing newline). */
std::string formatTaskRecord(const TaskRecord& record);

/**
 * Parse one checkpoint line. Returns an error for malformed input
 * (including a truncated line from a crashed writer).
 */
Result<TaskRecord> parseTaskRecord(const std::string& line);

/**
 * Load a checkpoint file. A missing file is an empty checkpoint (the
 * normal first-run case); an unreadable existing file is an error. A
 * malformed trailing line is dropped (crash tolerance), a malformed
 * line in the middle of the file is an error.
 */
Result<std::vector<TaskRecord>> loadCheckpoint(const std::string& path);

/**
 * Atomically replace @p path with the given records (one line each):
 * writes "<path>.tmp" and renames it over @p path.
 */
Status consolidateCheckpoint(const std::string& path,
                             const std::vector<TaskRecord>& records);

/**
 * Append-mode writer used while a campaign runs. Each append() writes
 * one line and flushes it. Not thread-safe; the runner serializes
 * access.
 */
class CheckpointWriter {
  public:
    CheckpointWriter() = default;
    ~CheckpointWriter();
    CheckpointWriter(const CheckpointWriter&) = delete;
    CheckpointWriter& operator=(const CheckpointWriter&) = delete;

    /** Open @p path for appending. */
    Status open(const std::string& path);

    /** Append one record and flush. */
    Status append(const TaskRecord& record);

    void close();
    bool isOpen() const { return file_ != nullptr; }

  private:
    std::FILE* file_ = nullptr;
    std::string path_;
};

} // namespace vdram

#endif // VDRAM_RUNNER_CHECKPOINT_H
