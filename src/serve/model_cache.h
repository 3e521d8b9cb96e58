/**
 * @file
 * Bounded LRU cache of validated descriptions for the serve daemon.
 *
 * Parsing and validating a description is the expensive, untrusted part
 * of a `load` request; building a model from a description already known
 * valid is cheap and assert-guarded. The cache therefore stores
 * validated DramDescription snapshots keyed by the FNV-1a hash of their
 * canonical writeDescription() text — two textually different inputs
 * that canonicalize identically share one entry. Sessions construct
 * their own DramPowerModel/VariantEvaluator from the cached snapshot,
 * so cached state is never shared mutably across connections.
 */
#ifndef VDRAM_SERVE_MODEL_CACHE_H
#define VDRAM_SERVE_MODEL_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/description.h"

namespace vdram {

class ModelCache {
  public:
    /** @p capacity bounds the number of cached descriptions (>= 1). */
    explicit ModelCache(std::size_t capacity);

    /**
     * Look up the description with @p key (the fnv1a64 of its canonical
     * text). A hit refreshes recency and returns an immutable snapshot;
     * a miss returns nullptr.
     */
    std::shared_ptr<const DramDescription> get(std::uint64_t key);

    /** Insert (or refresh) @p desc under @p key, evicting the least
     *  recently used entry beyond capacity. Returns the cached
     *  snapshot. */
    std::shared_ptr<const DramDescription> put(std::uint64_t key,
                                               DramDescription desc);

    std::size_t size() const;
    long long hits() const;
    long long misses() const;
    long long evictions() const;

  private:
    struct Entry {
        std::uint64_t key = 0;
        std::shared_ptr<const DramDescription> desc;
    };

    mutable std::mutex mutex_;
    std::size_t capacity_;
    /** Most recently used at the front. */
    std::list<Entry> lru_;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    long long hits_ = 0;
    long long misses_ = 0;
    long long evictions_ = 0;
};

} // namespace vdram

#endif // VDRAM_SERVE_MODEL_CACHE_H
