#include "runner/checkpoint.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "util/failpoint.h"
#include "util/json.h"
#include "util/strings.h"

namespace vdram {

namespace {

/**
 * Flush @p path (a file or its containing directory) to stable
 * storage. An atomic-rename checkpoint needs BOTH: fsync of the temp
 * file so the renamed file has its contents after power loss, and
 * fsync of the directory so the rename itself is durable — otherwise
 * the "crash-safe" checkpoint can come back empty or truncated.
 */
Status
syncPath(const std::string& path, bool directory)
{
    int flags = O_RDONLY;
#if defined(O_DIRECTORY)
    if (directory)
        flags |= O_DIRECTORY;
#else
    (void)directory;
#endif
    int fd = ::open(path.c_str(), flags);
    if (fd < 0) {
        return Error{"cannot open '" + path +
                         "' for fsync: " + std::strerror(errno),
                     0, 0, path, "E-CKPT-WRITE"};
    }
    Status status = Status::okStatus();
    if (::fsync(fd) != 0) {
        status = Error{"cannot fsync '" + path +
                           "': " + std::strerror(errno),
                       0, 0, path, "E-CKPT-WRITE"};
    }
    ::close(fd);
    return status;
}

/** Containing directory of @p path ("." when it has none). */
std::string
parentDirectory(const std::string& path)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    return parent.empty() ? std::string(".") : parent.string();
}

/**
 * Minimal parser for the flat JSON objects this module itself writes
 * (string and integer values only). Not a general JSON parser; feeding
 * it anything else yields an error, never undefined behavior.
 */
class RecordParser {
  public:
    explicit RecordParser(const std::string& text) : text_(text) {}

    Result<TaskRecord> parse()
    {
        TaskRecord record;
        skipSpace();
        if (!consume('{'))
            return fail("expected '{'");
        skipSpace();
        if (consume('}'))
            return record;
        while (true) {
            std::string key;
            if (!parseString(key))
                return fail("expected key string");
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            skipSpace();
            if (peek() == '"') {
                std::string value;
                if (!parseString(value))
                    return fail("bad string value");
                if (key == "name") record.name = value;
                else if (key == "status") record.status = value;
                else if (key == "payload") record.payload = value;
                else if (key == "error") record.error = value;
                // Unknown string keys are ignored (forward compat).
            } else {
                long long value = 0;
                if (!parseInteger(value))
                    return fail("bad numeric value");
                if (key == "task")
                    record.task = value;
                else if (key == "attempts")
                    record.attempts = static_cast<int>(value);
            }
            skipSpace();
            if (consume(',')) {
                skipSpace();
                continue;
            }
            if (consume('}'))
                break;
            return fail("expected ',' or '}'");
        }
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing content after record");
        if (record.task < 0 || record.status.empty())
            return fail("record missing task/status");
        return record;
    }

  private:
    Error fail(const std::string& what) const
    {
        return Error{"checkpoint record: " + what,
                     0, static_cast<int>(pos_) + 1, "", "E-CKPT-PARSE"};
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool parseString(std::string& out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return false;
                char hex[5] = {text_[pos_], text_[pos_ + 1],
                               text_[pos_ + 2], text_[pos_ + 3], '\0'};
                char* end = nullptr;
                long code = std::strtol(hex, &end, 16);
                if (end != hex + 4 || code < 0 || code > 0xFF)
                    return false; // the writer only emits \u00xx
                pos_ += 4;
                out += static_cast<char>(code);
                break;
            }
            default: return false;
            }
        }
        return false; // unterminated
    }

    bool parseInteger(long long& out)
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        if (pos_ == start)
            return false;
        out = std::atoll(text_.substr(start, pos_ - start).c_str());
        return true;
    }

    const std::string& text_;
    size_t pos_ = 0;
};

} // namespace

std::string
formatTaskRecord(const TaskRecord& record)
{
    JsonWriter json;
    json.beginObject();
    json.key("task").value(record.task);
    json.key("name").value(record.name);
    json.key("status").value(record.status);
    json.key("attempts").value(record.attempts);
    if (record.ok())
        json.key("payload").value(record.payload);
    else
        json.key("error").value(record.error);
    json.endObject();
    return json.str();
}

Result<TaskRecord>
parseTaskRecord(const std::string& line)
{
    return RecordParser(line).parse();
}

Result<std::vector<TaskRecord>>
loadCheckpoint(const std::string& path)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return std::vector<TaskRecord>{}; // first run: no checkpoint yet
    std::ifstream in(path);
    if (!in.is_open()) {
        return Error{"cannot open checkpoint '" + path +
                         "': " + std::strerror(errno),
                     0, 0, path, "E-CKPT-OPEN"};
    }
    std::vector<TaskRecord> records;
    std::string line;
    int line_no = 0;
    bool pending_error = false;
    Error error;
    while (std::getline(in, line)) {
        ++line_no;
        if (trim(line).empty())
            continue;
        // A malformed line is only fatal if another valid line follows:
        // a crashed writer can truncate the last record, never a middle
        // one.
        if (pending_error)
            return error;
        Result<TaskRecord> record = parseTaskRecord(line);
        if (!record.ok()) {
            pending_error = true;
            error = record.error();
            error.file = path;
            error.line = line_no;
            continue;
        }
        records.push_back(std::move(record).value());
    }
    return records;
}

Status
consolidateCheckpoint(const std::string& path,
                      const std::vector<TaskRecord>& records)
{
    // Failpoint `ckpt.consolidate`: Error fails before anything is
    // written, PartialWrite tears the temp file (the short-write check
    // below must catch it), Abort kills the process after the temp file
    // is durable but before the rename publishes it — the worst instant
    // for a kill -9, which the prior checkpoint must survive.
    FailpointHit hit = failpointHit("ckpt.consolidate");
    if (hit.action == FailpointAction::Error) {
        return Error{"injected consolidation failure at failpoint "
                     "'ckpt.consolidate'",
                     0, 0, path, "E-CKPT-WRITE"};
    }
    if (hit.action == FailpointAction::Crash) {
        throw std::runtime_error(
            "injected crash at failpoint 'ckpt.consolidate'");
    }

    std::string content;
    for (const TaskRecord& record : records) {
        content += formatTaskRecord(record);
        content += '\n';
    }

    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out.is_open()) {
            return Error{"cannot write checkpoint '" + tmp +
                             "': " + std::strerror(errno),
                         0, 0, tmp, "E-CKPT-WRITE"};
        }
        std::size_t to_write = content.size();
        if (hit.action == FailpointAction::PartialWrite)
            to_write /= 2; // injected torn temp file
        errno = 0;
        out.write(content.data(),
                  static_cast<std::streamsize>(to_write));
        out.flush();
        // A full disk (ENOSPC) or failing device shows up either as a
        // bad stream or as a short position; both must fail loudly —
        // renaming a truncated temp file over a good checkpoint would
        // destroy resumability silently.
        long long written =
            out.good() ? static_cast<long long>(out.tellp()) : -1;
        if (written != static_cast<long long>(content.size())) {
            int err = errno;
            std::remove(tmp.c_str());
            return Error{"short write to checkpoint '" + tmp + "' (" +
                             std::to_string(written < 0 ? 0 : written) +
                             " of " + std::to_string(content.size()) +
                             " bytes" +
                             (err ? std::string(": ") +
                                        std::strerror(err)
                                  : std::string()) +
                             ")",
                         0, 0, tmp, "E-CKPT-WRITE"};
        }
    }
    // Contents must be durable before the rename publishes the file,
    // and the rename must be durable before we report success.
    Status synced = syncPath(tmp, false);
    if (!synced.ok())
        return synced;
    if (hit.action == FailpointAction::Abort)
        std::abort(); // kill -9 between temp durability and publish
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        return Error{"cannot rename '" + tmp + "' to '" + path +
                         "': " + std::strerror(errno),
                     0, 0, path, "E-CKPT-WRITE"};
    }
    return syncPath(parentDirectory(path), true);
}

CheckpointWriter::~CheckpointWriter()
{
    close();
}

Status
CheckpointWriter::open(const std::string& path)
{
    close();
    file_ = std::fopen(path.c_str(), "a");
    if (!file_) {
        return Error{"cannot open checkpoint '" + path +
                         "' for appending: " + std::strerror(errno),
                     0, 0, path, "E-CKPT-OPEN"};
    }
    path_ = path;
    return Status::okStatus();
}

Status
CheckpointWriter::append(const TaskRecord& record)
{
    if (!file_)
        return Error{"checkpoint writer is not open", 0, 0, path_,
                     "E-CKPT-WRITE"};
    std::string line = formatTaskRecord(record);
    line += '\n';
    // Failpoint `ckpt.append`, evaluated mid-record: Abort leaves a
    // genuinely torn trailing line (what a kill -9 here does, and what
    // loadCheckpoint's truncation tolerance must absorb); PartialWrite
    // is the same tear but the process lives, so the caller must see
    // the short write reported, not a silent half-record.
    FailpointHit hit = failpointHit("ckpt.append");
    if (hit.action == FailpointAction::Error) {
        return Error{"injected write failure at failpoint 'ckpt.append'",
                     0, 0, path_, "E-CKPT-WRITE"};
    }
    if (hit.action == FailpointAction::Crash) {
        throw std::runtime_error(
            "injected crash at failpoint 'ckpt.append'");
    }
    if (hit.action == FailpointAction::Abort ||
        hit.action == FailpointAction::PartialWrite) {
        std::size_t half = line.size() / 2;
        std::fwrite(line.data(), 1, half, file_);
        std::fflush(file_);
        if (hit.action == FailpointAction::Abort)
            std::abort(); // kill -9 mid-record
        return Error{"short write to checkpoint '" + path_ + "' (" +
                         std::to_string(half) + " of " +
                         std::to_string(line.size()) +
                         " bytes, injected)",
                     0, 0, path_, "E-CKPT-WRITE"};
    }
    errno = 0;
    std::size_t written =
        std::fwrite(line.data(), 1, line.size(), file_);
    if (written != line.size() || std::fflush(file_) != 0) {
        // ENOSPC and friends surface here; the runner degrades the
        // campaign to non-resumable instead of silently truncating.
        int err = errno;
        return Error{"short write to checkpoint '" + path_ + "' (" +
                         std::to_string(written) + " of " +
                         std::to_string(line.size()) + " bytes" +
                         (err ? std::string(": ") + std::strerror(err)
                              : std::string()) +
                         ")",
                     0, 0, path_, "E-CKPT-WRITE"};
    }
    return Status::okStatus();
}

void
CheckpointWriter::close()
{
    if (file_) {
        // Records already hit the OS on every append (fflush); push
        // them to stable storage before releasing the handle so a
        // completed run's checkpoint survives power loss.
        std::fflush(file_);
        ::fsync(::fileno(file_));
        std::fclose(file_);
        file_ = nullptr;
    }
}

} // namespace vdram
