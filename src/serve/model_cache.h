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
 *
 * An entry also keeps its canonical text once a load has sent exactly
 * that text. find() then answers a later load of the same bytes without
 * parsing them: the key is the hash of the raw bytes, and a hit needs
 * every byte to match, so it is memoisation of parse -> write, never a
 * guess.
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

/** A description's canonical writeDescription() text and its cache key
 *  (the fnv1a64 of that text). */
struct CanonicalForm {
    std::string text;
    std::uint64_t key = 0;
};

CanonicalForm canonicalForm(const DramDescription& desc);

class ModelCache {
  public:
    /** @p capacity bounds the number of cached descriptions (>= 1). */
    explicit ModelCache(std::size_t capacity);

    /**
     * Look up the description with @p key (the fnv1a64 of its canonical
     * text). A hit refreshes recency and returns an immutable snapshot;
     * a miss returns nullptr. A hit also records a non-empty @p text,
     * which the caller passes only when a load sent exactly the
     * entry's canonical text.
     */
    std::shared_ptr<const DramDescription> get(std::uint64_t key,
                                               const std::string& text = {});

    /**
     * The text-load fast path: the snapshot under @p key (the fnv1a64
     * of @p text) when its recorded canonical text equals @p text byte
     * for byte, counted as a hit like get(). Anything else returns
     * nullptr and counts nothing; the caller then takes the parse path
     * and its get() counts the hit or miss.
     */
    std::shared_ptr<const DramDescription> find(std::uint64_t key,
                                                const std::string& text);

    /** Insert (or refresh) @p desc under @p key, evicting the least
     *  recently used entry beyond capacity, and record a non-empty
     *  canonical @p text as get() does. Returns the cached snapshot. */
    std::shared_ptr<const DramDescription> put(std::uint64_t key,
                                               DramDescription desc,
                                               std::string text = {});

    std::size_t size() const;
    long long hits() const;
    long long misses() const;
    long long evictions() const;

  private:
    struct Entry {
        std::uint64_t key = 0;
        std::shared_ptr<const DramDescription> desc;
        /** Canonical text a load sent verbatim; empty until one did. */
        std::string text;
    };

    /** Count a hit on @p it and make it the most recently used; the
     *  caller holds mutex_. */
    std::shared_ptr<const DramDescription>
    hit(std::list<Entry>::iterator it);

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
