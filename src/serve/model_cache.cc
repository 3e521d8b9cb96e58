#include "serve/model_cache.h"

#include <algorithm>
#include <utility>

#include "util/metrics.h"

namespace vdram {

ModelCache::ModelCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity))
{
}

std::shared_ptr<const DramDescription>
ModelCache::get(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        if (metricsEnabled())
            globalMetrics().counter("serve.cache.misses").add();
        return nullptr;
    }
    ++hits_;
    if (metricsEnabled())
        globalMetrics().counter("serve.cache.hits").add();
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->desc;
}

std::shared_ptr<const DramDescription>
ModelCache::put(std::uint64_t key, DramDescription desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->desc; // same canonical text, same snapshot
    }
    lru_.push_front(Entry{
        key, std::make_shared<const DramDescription>(std::move(desc))});
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
        if (metricsEnabled())
            globalMetrics().counter("serve.cache.evictions").add();
    }
    return lru_.front().desc;
}

std::size_t
ModelCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

long long
ModelCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

long long
ModelCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

long long
ModelCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

} // namespace vdram
