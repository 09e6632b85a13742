/**
 * @file
 * Abstract workload interface implemented by the four kernels.
 *
 * A Workload is bound to one device model at construction (the paper
 * runs the same high-level code on both devices, but the post
 * compiler code, tiling and tuning differ — Section IV-B). It can
 * compute a golden output and replay an execution with one strike
 * applied, returning the mismatch log exactly like the paper's host
 * comparing against a pre-computed golden output (Section IV-D).
 */

#ifndef RADCRIT_SIM_WORKLOAD_HH
#define RADCRIT_SIM_WORKLOAD_HH

#include <memory>
#include <string>

#include "arch/device.hh"
#include "exec/launch.hh"
#include "metrics/sdcrecord.hh"
#include "sim/fault.hh"

namespace radcrit
{

class Rng;

/**
 * One benchmark bound to one device configuration.
 *
 * Threading contract: inject() is deterministic (a pure function of
 * the Strike) but may scribble on internal scratch buffers, so
 * concurrent inject() calls on the *same* instance are not allowed.
 * Parallel campaigns give every worker its own instance via
 * clone(); clones share the immutable golden block and are safe to
 * use from different threads concurrently.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * @return an independent copy of this workload bound to the
     * same device and input: identical name/label/traits/golden
     * output, with private scratch state so the copy can run
     * inject() concurrently with the original. The immutable
     * golden block (inputs, golden output, replay checkpoints) is
     * shared between clones, never recomputed.
     */
    virtual std::unique_ptr<Workload> clone() const = 0;

    /** @return workload name ("DGEMM", "LavaMD", ...). */
    virtual const std::string &name() const = 0;

    /** @return a human-readable input-size label ("2048x2048"). */
    virtual std::string inputLabel() const = 0;

    /** @return the static launch traits on the bound device. */
    virtual const WorkloadTraits &traits() const = 0;

    /**
     * Execute once with the strike applied and compare against the
     * golden output.
     *
     * @param strike The strike to apply.
     * @param rng Randomness source for strike-local choices.
     * @return the mismatch log; empty when the strike is masked by
     * the computation.
     */
    virtual SdcRecord inject(const Strike &strike, Rng &rng) = 0;

    /** Output geometry of the workload (dims and extents). */
    virtual SdcRecord emptyRecord() const = 0;
};

} // namespace radcrit

#endif // RADCRIT_SIM_WORKLOAD_HH
