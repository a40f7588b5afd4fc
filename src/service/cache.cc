#include "service/cache.h"

#include <cstring>

#include "obs/registry.h"

namespace roboshape {
namespace service {

namespace {

/** FNV-1a over a byte range, seeded with the running hash. */
std::uint64_t
hash_bytes(std::uint64_t h, const void *data, std::size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

std::uint64_t
hash_string(std::uint64_t h, const std::string &s)
{
    const std::uint64_t size = s.size();
    h = hash_bytes(h, &size, sizeof(size)); // length-prefix: no gluing
    return hash_bytes(h, s.data(), s.size());
}

/** splitmix64 finalizer: spreads FNV's weak high bits. */
std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
model_hash(const topology::RobotModel &model)
{
    // The same byte-exact link fields the fuzz harness memcmps when it
    // checks strict/checked parse equivalence: every double that feeds
    // schedules or numerics, plus the names that appear in responses.
    std::uint64_t h = 0xCBF29CE484222325ull; // FNV offset basis
    h = hash_string(h, model.name());
    const std::uint64_t n = model.num_links();
    h = hash_bytes(h, &n, sizeof(n));
    for (std::size_t i = 0; i < model.num_links(); ++i) {
        const topology::Link &l = model.link(i);
        h = hash_string(h, l.name);
        h = hash_bytes(h, &l.parent, sizeof(l.parent));
        const auto type = l.joint.type();
        h = hash_bytes(h, &type, sizeof(type));
        h = hash_bytes(h, &l.joint.axis(), sizeof(l.joint.axis()));
        h = hash_bytes(h, &l.x_tree, sizeof(l.x_tree));
        h = hash_bytes(h, &l.inertia, sizeof(l.inertia));
    }
    return mix(h);
}

const std::shared_ptr<core::SweepContext> &
CacheEntry::context()
{
    if (!context_)
        context_ = std::make_shared<core::SweepContext>(
            *model_, accel::default_timing(), kernel_);
    return context_;
}

const std::string *
CacheEntry::find_body(const std::string &key) const
{
    const auto it = bodies_.find(key);
    if (it == bodies_.end()) {
        ROBOSHAPE_OBS_COUNT("svc.cache_misses", 1);
        return nullptr;
    }
    ROBOSHAPE_OBS_COUNT("svc.cache_hits", 1);
    return &it->second;
}

const std::string &
CacheEntry::store_body(const std::string &key, std::string body)
{
    const auto [it, inserted] = bodies_.insert_or_assign(key, std::move(body));
    if (inserted && key != "sweep") {
        design_order_.push_back(it);
        if (design_order_.size() > kMaxDesignBodies) {
            bodies_.erase(design_order_.front());
            design_order_.pop_front();
        }
    }
    return it->second;
}

std::shared_ptr<CacheEntry>
DesignCache::entry(std::uint64_t hash, sched::KernelKind kernel,
                   const topology::RobotModel &model)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find({hash, kernel});
        if (it != entries_.end())
            return it->second;
    }
    return entry(hash, kernel,
                 std::make_shared<const topology::RobotModel>(model));
}

std::shared_ptr<CacheEntry>
DesignCache::entry(std::uint64_t hash, sched::KernelKind kernel,
                   std::shared_ptr<const topology::RobotModel> model)
{
    const Key key{hash, kernel};
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end())
        return it->second;
    while (entries_.size() >= kMaxCacheEntries && !order_.empty()) {
        entries_.erase(order_.front());
        order_.pop_front();
        ROBOSHAPE_OBS_COUNT("svc.cache_evictions", 1);
    }
    auto entry = std::make_shared<CacheEntry>(std::move(model), kernel);
    entries_.emplace(key, entry);
    order_.push_back(key);
    ROBOSHAPE_OBS_COUNT("svc.cache_entries_created", 1);
    return entry;
}

std::size_t
DesignCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::optional<ParsedUrdf>
DesignCache::find_urdf(const std::string &urdf_text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = urdf_memo_.find(urdf_text);
    if (it == urdf_memo_.end()) {
        ROBOSHAPE_OBS_COUNT("svc.urdf_memo_misses", 1);
        return std::nullopt;
    }
    ROBOSHAPE_OBS_COUNT("svc.urdf_memo_hits", 1);
    return it->second;
}

void
DesignCache::remember_urdf(std::string urdf_text, ParsedUrdf parsed)
{
    const std::size_t bytes = urdf_text.size();
    if (bytes > kMaxMemoBytes)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (urdf_memo_.count(urdf_text))
        return; // a concurrent first request stored it: keep that one
    while (!urdf_order_.empty() &&
           (urdf_memo_.size() >= kMaxCacheEntries ||
            urdf_bytes_ + bytes > kMaxMemoBytes)) {
        const auto oldest = urdf_memo_.find(*urdf_order_.front());
        urdf_bytes_ -= oldest->first.size();
        urdf_memo_.erase(oldest);
        urdf_order_.pop_front();
    }
    const auto it =
        urdf_memo_.emplace(std::move(urdf_text), std::move(parsed)).first;
    urdf_order_.push_back(&it->first);
    urdf_bytes_ += bytes;
}

std::size_t
DesignCache::urdf_memo_size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return urdf_memo_.size();
}

} // namespace service
} // namespace roboshape
