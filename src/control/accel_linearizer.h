/**
 * @file
 * iLQR dynamics linearization on the compiled accelerator engine.
 *
 * This is the paper's end-to-end deployment story (Sec. 5.2): the host
 * keeps the cheap forward-dynamics front-end (CRBA, M^-1, bias forces —
 * the parts the accelerator does not implement) and offloads the
 * dominant dynamics-gradient evaluation to the generated accelerator —
 * here its compiled functional model, accel::SimEngine.  Each solver
 * iteration hands the engine the whole horizon as one batch of packets,
 * one per knot point.
 */

#ifndef ROBOSHAPE_CONTROL_ACCEL_LINEARIZER_H
#define ROBOSHAPE_CONTROL_ACCEL_LINEARIZER_H

#include <vector>

#include "accel/design.h"
#include "accel/sim_engine.h"
#include "control/ilqr.h"
#include "dynamics/rnea.h"

namespace roboshape {
namespace control {

/**
 * DynamicsLinearizer backed by a compiled dynamics-gradient accelerator.
 *
 * Host front-end work (linearization point and M^-1) follows
 * dynamics::forward_dynamics_gradients exactly; the dtau traversal and the
 * blocked -M^-1 multiplies run on the engine.  The engine's workspaces,
 * the per-knot inputs and the result blocks live in the linearizer, so
 * repeated calls reuse all accelerator-side storage.
 */
class AcceleratorLinearizer : public DynamicsLinearizer
{
  public:
    /**
     * @param design a kDynamicsGradient accelerator; must outlive this.
     * @throws std::logic_error for designs of any other kernel.
     * @throws DataHazardError if @p order is not executable.
     */
    explicit AcceleratorLinearizer(
        const accel::AcceleratorDesign &design,
        accel::SimOrder order = accel::SimOrder::kStaged,
        const spatial::Vec3 &gravity = dynamics::kDefaultGravity);

    /** One knot: one SimEngine::run. */
    void linearize(const linalg::Vector &x, const linalg::Vector &u,
                   double dt, linalg::Matrix &a, linalg::Matrix &b) override;

    /**
     * The host front end at every knot, then one SimEngine::run_batch over
     * the whole horizon, so full groups of knots run through the SIMD lane
     * backend.  Bit-identical to linearize() knot by knot, under the
     * lanes' 0-ulp contract (accel/simd_lanes.h).
     */
    void linearize_horizon(std::span<const linalg::Vector> states,
                           std::span<const linalg::Vector> controls,
                           double dt, std::span<linalg::Matrix> a,
                           std::span<linalg::Matrix> b) override;

    /** Packets the engine has executed so far (one per knot). */
    std::size_t calls() const { return calls_; }

    const accel::SimEngine &engine() const { return engine_; }

  private:
    /** Engine inputs of one knot, computed on the host. */
    struct Knot
    {
        linalg::Vector q, qd, qdd;
        linalg::Matrix mass_inv;
    };

    /** Grows the per-knot storage to at least @p knots entries. */
    void reserve_knots(std::size_t knots);
    /** Host front end at (@p x, @p u) into @p knot; returns its packet. */
    accel::InputPacket front_end(const linalg::Vector &x,
                                 const linalg::Vector &u, Knot &knot) const;

    const accel::AcceleratorDesign *design_;
    accel::SimEngine engine_;
    accel::SimEngine::Workspace ws_;
    accel::SimEngine::BatchWorkspace batch_ws_;
    spatial::Vec3 gravity_;
    // Per-knot storage, grown to the longest horizon seen, then reused.
    std::vector<Knot> knots_;
    std::vector<accel::InputPacket> packets_;
    std::vector<accel::EngineResult> results_;
    std::size_t calls_ = 0;
};

} // namespace control
} // namespace roboshape

#endif // ROBOSHAPE_CONTROL_ACCEL_LINEARIZER_H
