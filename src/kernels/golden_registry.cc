#include "kernels/golden_registry.hh"

#include <iterator>

#include "obs/timer.hh"

namespace radcrit
{

GoldenRegistry &
GoldenRegistry::global()
{
    static GoldenRegistry registry;
    return registry;
}

std::shared_ptr<const void>
GoldenRegistry::getErased(
    const std::string &phase, const std::string &key,
    const std::function<std::shared_ptr<const void>()> &compute)
{
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::string full = phase + '\x1f' + key;
        auto it = slots_.find(full);
        if (it == slots_.end()) {
            // Drop slots nobody holds a block of and nobody is
            // waiting on, so the map stays as small as the set of
            // live keys. A use count of 1 (the map's own) cannot
            // grow while mutex_ is held.
            for (auto jt = slots_.begin(); jt != slots_.end();) {
                bool idle = jt->second.use_count() == 1;
                if (idle) {
                    std::lock_guard<std::mutex> slot_lock(
                        jt->second->mutex);
                    idle = jt->second->block.expired();
                }
                jt = idle ? slots_.erase(jt) : std::next(jt);
            }
            it = slots_.emplace(std::move(full),
                                std::make_shared<Slot>()).first;
        }
        slot = it->second;
    }

    // The per-key lock serializes concurrent askers of one key
    // behind its single computation without blocking other keys.
    std::lock_guard<std::mutex> lock(slot->mutex);
    if (std::shared_ptr<const void> block = slot->block.lock())
        return block;
    std::shared_ptr<const void> block;
    {
        ScopedTimer timer(StatsRegistry::global(), phase);
        block = compute();
    }
    slot->block = block;
    return block;
}

} // namespace radcrit
