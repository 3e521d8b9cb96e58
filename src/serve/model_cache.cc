#include "serve/model_cache.h"

#include <algorithm>
#include <utility>

#include "dsl/writer.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace vdram {

CanonicalForm
canonicalForm(const DramDescription& desc)
{
    CanonicalForm form;
    form.text = writeDescription(desc);
    form.key = fnv1a64(form.text);
    return form;
}

ModelCache::ModelCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity))
{
}

std::shared_ptr<const DramDescription>
ModelCache::hit(std::list<Entry>::iterator it)
{
    ++hits_;
    if (metricsEnabled())
        globalMetrics().counter("serve.cache.hits").add();
    lru_.splice(lru_.begin(), lru_, it);
    return it->desc;
}

std::shared_ptr<const DramDescription>
ModelCache::get(std::uint64_t key, const std::string& text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        if (metricsEnabled())
            globalMetrics().counter("serve.cache.misses").add();
        return nullptr;
    }
    if (!text.empty() && it->second->text.empty())
        it->second->text = text;
    return hit(it->second);
}

std::shared_ptr<const DramDescription>
ModelCache::find(std::uint64_t key, const std::string& text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (text.empty() || it == index_.end() || it->second->text != text)
        return nullptr;
    return hit(it->second);
}

std::shared_ptr<const DramDescription>
ModelCache::put(std::uint64_t key, DramDescription desc, std::string text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        if (!text.empty() && it->second->text.empty())
            it->second->text = std::move(text);
        return it->second->desc; // same canonical text, same snapshot
    }
    lru_.push_front(Entry{
        key, std::make_shared<const DramDescription>(std::move(desc)),
        std::move(text)});
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
