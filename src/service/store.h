/**
 * @file
 * Persistent disk-backed result store: the durability layer under the
 * in-memory ResultCache.
 *
 * A solved query is a pure function of its CanonicalKey (the UOV is
 * universal under *every* legal schedule -- the paper's core result),
 * so a certified answer is cacheable forever and across process
 * lifetimes.  The store is an append-only log of (CanonicalKey,
 * ServiceAnswer) records; a restarted daemon preloads it into the
 * ResultCache and answers its whole corpus at warm-cache speed with
 * zero branch-and-bound searches.
 *
 * Log format (all integers little-endian):
 *
 *     8-byte magic "UOVSTO01"
 *     repeated records: u32 payload_len | u64 fnv1a(payload) | payload
 *
 * Durability discipline:
 *
 *  - append() writes the framed record, then fsyncs; only then is the
 *    append acknowledged (returns true).  On ANY failure -- an armed
 *    `store_write`/`store_fsync` fail point, a short write, a failed
 *    fsync -- the partial record is rolled back (ftruncate to the
 *    pre-append offset) before the mutex is released, so the log
 *    never carries a torn record in its *middle*.  Acknowledged
 *    records are therefore exactly the on-disk records; a store write
 *    failure degrades durability for that one answer, never the
 *    query itself (callers treat false as "served but not persisted").
 *
 *  - A hard kill (SIGKILL, power loss) mid-append can still leave a
 *    torn *tail*.  open() validates records front to back and stops
 *    at the first framing or checksum violation; when a torn tail is
 *    found, the validated prefix is rewritten to `<path>.tmp.<pid>`
 *    and renamed over the original -- the same atomic tmp+rename
 *    publish discipline as JitCompiler's object cache -- so a crashed
 *    recovery leaves either the old damaged file or the repaired one,
 *    never a half-repaired hybrid.  The reopened store is always a
 *    checksummed prefix of what was acknowledged.
 *
 * Thread safety: all members are safe to call concurrently (one mutex
 * over the fd, the index, and the counters -- the store sits behind
 * the cache, so it is not a hot path).
 *
 * Fail-point sites: `store_open` (fired inside open, before the scan),
 * `store_write` (before the record write), `store_fsync` (before the
 * fsync).  The `durability` fuzz oracle drives all three.
 */

#ifndef UOV_SERVICE_STORE_H
#define UOV_SERVICE_STORE_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "service/answer.h"
#include "service/canonical.h"
#include "support/metrics.h"

namespace uov {
namespace service {

class ResultCache;

class ResultStore
{
  public:
    struct Stats
    {
        uint64_t records_loaded = 0;  ///< valid records read at open
        uint64_t truncated_bytes = 0; ///< torn tail dropped at open
        uint64_t appends = 0;         ///< acknowledged appends
        uint64_t append_errors = 0;   ///< rolled-back appends
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t entries = 0;         ///< live (deduped) index size
        uint64_t file_bytes = 0;      ///< log size after open/append
    };

    /**
     * Open (creating if absent) the log at @p path, validate it, and
     * load every intact record into the in-memory index.  A torn tail
     * is truncated via tmp+rename repair.  @p metrics optionally
     * mirrors the counters as service.store.*.
     *
     * @throws UovUserError when the file cannot be opened or created,
     *         or carries a foreign magic (not silently overwritten).
     */
    explicit ResultStore(std::string path,
                         MetricsRegistry *metrics = nullptr);

    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Durably append one record.  True = acknowledged (bytes framed,
     * checksummed, written, and fsynced); false = rolled back (log
     * unchanged, answer not persisted).  Never throws for write-path
     * failures -- durability degrades, the query does not.
     */
    bool append(const CanonicalKey &key, const ServiceAnswer &answer);

    /** Copy out the stored answer for @p key, if present. */
    std::optional<ServiceAnswer> lookup(const CanonicalKey &key);

    /**
     * Visit every live (deduped) record in first-appended order.
     * Used by the warm-start preload.
     */
    void forEach(const std::function<void(const CanonicalKey &,
                                          const ServiceAnswer &)> &fn)
        const;

    /**
     * Visit every on-disk record in log order, duplicates included
     * (the durability oracle asserts the acknowledged-prefix property
     * against the raw log, not the index).
     */
    void forEachRaw(const std::function<void(const CanonicalKey &,
                                             const ServiceAnswer &)>
                        &fn) const;

    /** Insert every live record into @p cache. */
    void preload(ResultCache &cache) const;

    Stats stats() const;
    const std::string &path() const { return _path; }

    /**
     * Serialize / parse one record payload (exposed for tests and the
     * durability oracle; the framing -- length and checksum -- is the
     * store's own business).
     */
    static std::string encodePayload(const CanonicalKey &key,
                                     const ServiceAnswer &answer);
    static bool decodePayload(std::string_view payload,
                              CanonicalKey &key, ServiceAnswer &answer);

  private:
    struct Record
    {
        CanonicalKey key;
        ServiceAnswer answer;
    };

    /** Validate + load the log; repair a torn tail. No lock held. */
    void open();

    /** Write the full buffer or throw. */
    void writeAll(int fd, const char *data, size_t len);

    /** Rewrite @p records to <path>.tmp.<pid>, fsync, rename. */
    void publishSegment(const std::vector<Record> &records);

    std::string _path;
    int _fd = -1;
    uint64_t _end = 0; ///< validated log size (append offset)
    bool _broken = false; ///< a rollback failed; appends disabled

    mutable std::mutex _mutex;
    std::vector<Record> _log; ///< raw records in log order
    std::unordered_map<CanonicalKey, size_t, CanonicalKeyHash>
        _index; ///< key -> latest _log position

    Stats _stats;
    Counter *_hits_metric = nullptr;
    Counter *_appends_metric = nullptr;
    Counter *_append_errors_metric = nullptr;
    Counter *_loaded_metric = nullptr;
    Counter *_truncated_metric = nullptr;
};

} // namespace service
} // namespace uov

#endif // UOV_SERVICE_STORE_H
