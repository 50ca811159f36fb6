#include "service/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "service/result_cache.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/logging.h"

namespace uov {
namespace service {

namespace {

constexpr char kMagic[8] = {'U', 'O', 'V', 'S', 'T', 'O', '0', '1'};
constexpr size_t kMagicBytes = sizeof(kMagic);
constexpr size_t kFrameBytes = 4 + 8; ///< u32 len + u64 checksum

/** A record bigger than this is framing garbage, not data. */
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/** Plain FNV-1a 64 over the payload bytes. */
uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Append @p v little-endian, in sizeof(T) bytes. */
template <typename T>
void
put(std::string &out, T v)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>(
            (static_cast<uint64_t>(v) >> (8 * i)) & 0xff));
}

/** Bounds-checked little-endian reader over a frame or a payload. */
class Cursor
{
  public:
    explicit Cursor(std::string_view bytes) : _bytes(bytes) {}

    /** One little-endian value, in sizeof(T) bytes. */
    template <typename T>
    bool
    get(T &v)
    {
        if (_pos + sizeof(T) > _bytes.size())
            return false;
        uint64_t u = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            u |= uint64_t{static_cast<unsigned char>(_bytes[_pos + i])}
                 << (8 * i);
        v = static_cast<T>(u);
        _pos += sizeof(T);
        return true;
    }

    bool
    bytes(std::string_view &out, size_t len)
    {
        if (_pos + len > _bytes.size())
            return false;
        out = _bytes.substr(_pos, len);
        _pos += len;
        return true;
    }

    bool done() const { return _pos == _bytes.size(); }

  private:
    std::string_view _bytes;
    size_t _pos = 0;
};

/** Append one log frame to @p out: u32 length, u64 checksum, then
 *  the payload itself. */
void
putFrame(std::string &out, const std::string &payload)
{
    put<uint32_t>(out, payload.size());
    put<uint64_t>(out, fnv1a(payload));
    out += payload;
}

void
putIVec(std::string &out, const IVec &v)
{
    put<uint32_t>(out, v.dim());
    for (size_t i = 0; i < v.dim(); ++i)
        put<int64_t>(out, v[i]);
}

bool
getIVec(Cursor &cur, IVec &out)
{
    uint32_t dim;
    if (!cur.get(dim) || dim == 0 || dim > 1024)
        return false;
    std::vector<int64_t> coords(dim);
    for (uint32_t i = 0; i < dim; ++i)
        if (!cur.get(coords[i]))
            return false;
    out = IVec(std::move(coords));
    return true;
}

} // namespace

std::string
ResultStore::encodePayload(const CanonicalKey &key,
                           const ServiceAnswer &answer)
{
    std::string out;
    // Key.
    put<uint32_t>(out, key.deps.size());
    for (const IVec &v : key.deps)
        putIVec(out, v);
    out.push_back(
        key.objective == SearchObjective::BoundedStorage ? 1 : 0);
    out.push_back(key.isg_lo.has_value() ? 1 : 0);
    if (key.isg_lo) {
        putIVec(out, *key.isg_lo);
        putIVec(out, *key.isg_hi);
    }
    put<int64_t>(out, key.deadline_ms);
    // Answer.
    putIVec(out, answer.best_uov);
    put<int64_t>(out, answer.best_objective);
    put<int64_t>(out, answer.initial_objective);
    put<uint64_t>(out, answer.canonical_deps);
    out.push_back(answer.degraded ? 1 : 0);
    put<uint32_t>(out, answer.degraded_reason.size());
    out += answer.degraded_reason;
    put<uint32_t>(out, answer.cert.size());
    for (const auto &row : answer.cert) {
        put<uint32_t>(out, row.size());
        for (int64_t c : row)
            put<int64_t>(out, c);
    }
    return out;
}

bool
ResultStore::decodePayload(std::string_view payload, CanonicalKey &key,
                           ServiceAnswer &answer)
{
    Cursor cur(payload);
    uint32_t ndeps;
    if (!cur.get(ndeps) || ndeps == 0 || ndeps > 100'000)
        return false;
    key.deps.clear();
    key.deps.reserve(ndeps);
    for (uint32_t i = 0; i < ndeps; ++i) {
        IVec v;
        if (!getIVec(cur, v))
            return false;
        key.deps.push_back(std::move(v));
    }
    uint8_t objective, has_box;
    if (!cur.get(objective) || objective > 1 || !cur.get(has_box) ||
        has_box > 1)
        return false;
    key.objective = objective ? SearchObjective::BoundedStorage
                              : SearchObjective::ShortestVector;
    key.isg_lo.reset();
    key.isg_hi.reset();
    if (has_box) {
        IVec lo, hi;
        if (!getIVec(cur, lo) || !getIVec(cur, hi))
            return false;
        key.isg_lo = std::move(lo);
        key.isg_hi = std::move(hi);
    }
    if (!cur.get(key.deadline_ms) || key.deadline_ms < -1)
        return false;
    if (!getIVec(cur, answer.best_uov))
        return false;
    if (!cur.get(answer.best_objective) ||
        !cur.get(answer.initial_objective))
        return false;
    uint64_t canon;
    if (!cur.get(canon))
        return false;
    answer.canonical_deps = static_cast<size_t>(canon);
    uint8_t degraded;
    if (!cur.get(degraded) || degraded > 1)
        return false;
    answer.degraded = degraded != 0;
    uint32_t reason_len;
    std::string_view reason;
    if (!cur.get(reason_len) || reason_len > 4096 ||
        !cur.bytes(reason, reason_len))
        return false;
    answer.degraded_reason = reason;
    uint32_t nrows;
    if (!cur.get(nrows) || nrows > 100'000)
        return false;
    answer.cert.clear();
    answer.cert.reserve(nrows);
    for (uint32_t i = 0; i < nrows; ++i) {
        uint32_t len;
        if (!cur.get(len) || len > 100'000)
            return false;
        std::vector<int64_t> row(len);
        for (uint32_t j = 0; j < len; ++j)
            if (!cur.get(row[j]))
                return false;
        answer.cert.push_back(std::move(row));
    }
    // Trailing junk inside a checksummed payload means version drift,
    // not a torn write; reject it the same way (the caller truncates).
    return cur.done();
}

ResultStore::ResultStore(std::string path, MetricsRegistry *metrics)
    : _path(std::move(path))
{
    if (metrics != nullptr) {
        _hits_metric = &metrics->counter("service.store.hits");
        _appends_metric = &metrics->counter("service.store.appends");
        _append_errors_metric =
            &metrics->counter("service.store.append_errors");
        _loaded_metric = &metrics->counter("service.store.loaded");
        _truncated_metric =
            &metrics->counter("service.store.truncated_bytes");
    }
    open();
    if (_loaded_metric != nullptr)
        _loaded_metric->inc(_stats.records_loaded);
    if (_truncated_metric != nullptr)
        _truncated_metric->inc(_stats.truncated_bytes);
}

ResultStore::~ResultStore()
{
    if (_fd >= 0)
        ::close(_fd);
}

void
ResultStore::writeAll(int fd, const char *data, size_t len)
{
    size_t off = 0;
    while (off < len) {
        ssize_t n = ::pwrite(fd, data + off, len - off,
                             static_cast<off_t>(_end + off));
        UOV_REQUIRE(n > 0, "result store '"
                               << _path << "': write failed: "
                               << std::strerror(errno));
        off += static_cast<size_t>(n);
    }
}

void
ResultStore::open()
{
    failpoint::fire("store_open");
    _fd = ::open(_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    UOV_REQUIRE(_fd >= 0, "cannot open result store '"
                              << _path
                              << "': " << std::strerror(errno));

    // Slurp the whole log: stores are answer-sized, not trace-sized,
    // and a full scan is the validation pass anyway.
    std::string buf;
    {
        char chunk[1 << 16];
        ssize_t n;
        while ((n = ::read(_fd, chunk, sizeof(chunk))) > 0)
            buf.append(chunk, static_cast<size_t>(n));
        UOV_REQUIRE(n == 0, "cannot read result store '"
                                << _path
                                << "': " << std::strerror(errno));
    }

    if (buf.empty()) {
        // Fresh store: publish the header before the first append so
        // a crash between creation and first use leaves a valid file.
        _end = 0;
        writeAll(_fd, kMagic, kMagicBytes);
        ::fsync(_fd);
        _end = kMagicBytes;
        _stats.file_bytes = _end;
        return;
    }
    // A file shorter than the magic is a torn creation; anything else
    // that does not start with our magic is a foreign file we refuse
    // to clobber.
    if (buf.size() >= kMagicBytes &&
        std::memcmp(buf.data(), kMagic, kMagicBytes) != 0)
        throw UovUserError("'" + _path +
                           "' is not a uov result store (bad magic); "
                           "refusing to overwrite it");

    size_t pos = kMagicBytes;
    bool torn = false;
    while (pos < buf.size()) {
        Cursor frame(std::string_view(buf).substr(pos));
        uint32_t len;
        uint64_t checksum;
        std::string_view payload;
        Record rec;
        if (!frame.get(len) || !frame.get(checksum) || len == 0 ||
            len > kMaxPayloadBytes || !frame.bytes(payload, len) ||
            fnv1a(payload) != checksum ||
            !decodePayload(payload, rec.key, rec.answer)) {
            torn = true;
            break;
        }
        _index[rec.key] = _log.size();
        _log.push_back(std::move(rec));
        pos += kFrameBytes + len;
    }
    if (buf.size() < kMagicBytes) {
        torn = true;
        pos = 0;
    }
    _stats.records_loaded = _log.size();
    if (torn) {
        _stats.truncated_bytes = buf.size() - pos;
        UOV_LOG_WARN("result store '"
                     << _path << "': torn tail, truncating "
                     << _stats.truncated_bytes << " byte(s) after "
                     << _log.size() << " intact record(s)");
        // Repair by republishing the validated prefix atomically --
        // tmp+rename, the JitCompiler object-cache discipline -- so a
        // crash mid-repair cannot make things worse.
        publishSegment(_log);
    } else {
        _end = buf.size();
    }
    _stats.entries = _index.size();
    _stats.file_bytes = _end;
}

void
ResultStore::publishSegment(const std::vector<Record> &records)
{
    std::string tmp = _path + ".tmp." +
                      std::to_string(static_cast<long>(::getpid()));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    UOV_REQUIRE(fd >= 0, "cannot write result store segment '"
                             << tmp << "': " << std::strerror(errno));
    std::string out(kMagic, kMagicBytes);
    for (const Record &rec : records)
        putFrame(out, encodePayload(rec.key, rec.answer));
    size_t off = 0;
    while (off < out.size()) {
        ssize_t n = ::write(fd, out.data() + off, out.size() - off);
        if (n <= 0) {
            ::close(fd);
            ::unlink(tmp.c_str());
            throw UovUserError("cannot write result store segment '" +
                               tmp + "': " + std::strerror(errno));
        }
        off += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw UovUserError("cannot sync result store segment '" + tmp +
                           "': " + std::strerror(errno));
    }
    if (::rename(tmp.c_str(), _path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw UovUserError("cannot publish result store '" + _path +
                           "': " + std::strerror(errno));
    }
    if (_fd >= 0)
        ::close(_fd);
    _fd = ::open(_path.c_str(), O_RDWR | O_CLOEXEC);
    UOV_REQUIRE(_fd >= 0, "cannot reopen result store '"
                              << _path
                              << "': " << std::strerror(errno));
    _end = out.size();
    _stats.file_bytes = _end;
}

bool
ResultStore::append(const CanonicalKey &key, const ServiceAnswer &answer)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto fail = [&] {
        ++_stats.append_errors;
        if (_append_errors_metric != nullptr)
            _append_errors_metric->inc();
        return false;
    };
    if (_broken)
        return fail();

    std::string rec;
    putFrame(rec, encodePayload(key, answer));

    try {
        failpoint::fire("store_write");
        writeAll(_fd, rec.data(), rec.size());
        failpoint::fire("store_fsync");
        UOV_REQUIRE(::fsync(_fd) == 0,
                    "result store '" << _path << "': fsync failed: "
                                     << std::strerror(errno));
    } catch (const UovError &e) {
        // Roll the partial record back before releasing the mutex:
        // the log must never carry a torn record in its middle, or a
        // later acknowledged append would be stranded behind it.  An
        // fsync-path failure also rolls back -- the bytes may or may
        // not be durable, so the only honest acknowledgement is none.
        UOV_LOG_WARN("result store '" << _path
                                      << "': append rolled back: "
                                      << e.what());
        if (::ftruncate(_fd, static_cast<off_t>(_end)) != 0) {
            UOV_LOG_WARN("result store '"
                         << _path
                         << "': rollback ftruncate failed, disabling "
                            "appends: "
                         << std::strerror(errno));
            _broken = true;
        }
        return fail();
    }

    _end += rec.size();
    _stats.file_bytes = _end;
    _index[key] = _log.size();
    _log.push_back(Record{key, answer});
    _stats.entries = _index.size();
    ++_stats.appends;
    if (_appends_metric != nullptr)
        _appends_metric->inc();
    return true;
}

std::optional<ServiceAnswer>
ResultStore::lookup(const CanonicalKey &key)
{
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.lookups;
    auto it = _index.find(key);
    if (it == _index.end())
        return std::nullopt;
    ++_stats.hits;
    if (_hits_metric != nullptr)
        _hits_metric->inc();
    return _log[it->second].answer;
}

void
ResultStore::forEach(const std::function<void(const CanonicalKey &,
                                              const ServiceAnswer &)>
                         &fn) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (size_t i = 0; i < _log.size(); ++i) {
        auto it = _index.find(_log[i].key);
        if (it != _index.end() && it->second == i)
            fn(_log[i].key, _log[i].answer);
    }
}

void
ResultStore::forEachRaw(const std::function<void(const CanonicalKey &,
                                                 const ServiceAnswer &)>
                            &fn) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const Record &rec : _log)
        fn(rec.key, rec.answer);
}

void
ResultStore::preload(ResultCache &cache) const
{
    forEach([&](const CanonicalKey &key, const ServiceAnswer &answer) {
        cache.insert(key, answer);
    });
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

} // namespace service
} // namespace uov
