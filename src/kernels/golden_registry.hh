/**
 * @file
 * Process-wide registry of immutable golden blocks.
 *
 * A kernel's golden block (inputs, golden output, checkpoints, RMS)
 * is a pure function of a few construction values — the side and
 * seed of a DGEMM, the boxes/particles/seed of a LavaMD grid — and
 * never of the device beyond them. The paper (Section IV-D)
 * computes each golden output once per input; the registry gives
 * the simulator the same property: every workload asks it for its
 * block by a key that spells out exactly the values the golden
 * reads, and a key is computed at most once while any workload
 * still holds its block, even when several threads ask at once.
 *
 * The registry holds weak references only: a block lives exactly
 * as long as some workload (or clone) holds it, so a test binary
 * or a one-campaign CLI run never accumulates blocks, while the
 * suite keeps its planned workloads — and so their blocks — alive
 * for the whole run.
 */

#ifndef RADCRIT_KERNELS_GOLDEN_REGISTRY_HH
#define RADCRIT_KERNELS_GOLDEN_REGISTRY_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace radcrit
{

/**
 * Compute-once cache of golden blocks keyed by (phase, key).
 */
class GoldenRegistry
{
  public:
    /** @return the process-wide registry. */
    static GoldenRegistry &global();

    /**
     * @return the block for `key`, computing it with `compute`
     * (timed under the `phase` timer, e.g. "kernel.dgemm.golden")
     * when no live holder has it. Concurrent callers of one key
     * wait for the single computation; distinct keys compute in
     * parallel. The phase names the kernel, so keys of different
     * kernels (and block types) never collide.
     */
    template <typename T, typename Compute>
    std::shared_ptr<const T>
    get(const std::string &phase, const std::string &key,
        Compute &&compute)
    {
        return std::static_pointer_cast<const T>(getErased(
            phase, key, [&]() -> std::shared_ptr<const void> {
                return std::make_shared<const T>(compute());
            }));
    }

  private:
    /** One key: its computation lock and the (weak) block. */
    struct Slot
    {
        std::mutex mutex;
        std::weak_ptr<const void> block;
    };

    std::shared_ptr<const void>
    getErased(const std::string &phase, const std::string &key,
              const std::function<std::shared_ptr<const void>()>
                  &compute);

    std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Slot>> slots_;
};

} // namespace radcrit

#endif // RADCRIT_KERNELS_GOLDEN_REGISTRY_HH
