#include "core/variant_evaluator.h"

#include <algorithm>

#include "util/metrics.h"

namespace vdram {

namespace {

/** Cache-effectiveness counters for the delta-evaluation fast path.
 *  Resolved once; all recording is gated on the runtime switch. */
struct EvaluatorInstruments {
    struct StageCache {
        Counter& hit;
        Counter& miss;
    };
    StageCache stage[4] = {
        {globalMetrics().counter("evaluator.cache.geometry.hit"),
         globalMetrics().counter("evaluator.cache.geometry.miss")},
        {globalMetrics().counter("evaluator.cache.loads.hit"),
         globalMetrics().counter("evaluator.cache.loads.miss")},
        {globalMetrics().counter("evaluator.cache.signal_cache.hit"),
         globalMetrics().counter("evaluator.cache.signal_cache.miss")},
        {globalMetrics().counter("evaluator.cache.charges.hit"),
         globalMetrics().counter("evaluator.cache.charges.miss")},
    };
    struct DirtyGroup {
        DirtyMask bit;
        Counter& count;
    };
    DirtyGroup dirty[5] = {
        {kDirtyTechnology,
         globalMetrics().counter("evaluator.dirty.technology")},
        {kDirtyElectrical,
         globalMetrics().counter("evaluator.dirty.electrical")},
        {kDirtyLogicBlocks,
         globalMetrics().counter("evaluator.dirty.logic_blocks")},
        {kDirtySignals,
         globalMetrics().counter("evaluator.dirty.signals")},
        {kDirtyStructure,
         globalMetrics().counter("evaluator.dirty.structure")},
    };
    Counter& patternHit = globalMetrics().counter("evaluator.pattern.hit");
    Counter& patternMiss =
        globalMetrics().counter("evaluator.pattern.miss");
    Counter& chargeTableHit =
        globalMetrics().counter("evaluator.charge_table.hit");
    Counter& chargeTableMiss =
        globalMetrics().counter("evaluator.charge_table.miss");
};

EvaluatorInstruments&
evaluatorInstruments()
{
    static EvaluatorInstruments instruments;
    return instruments;
}

constexpr StageMask kStageBits[4] = {kStageGeometry, kStageLoads,
                                     kStageSignalCache, kStageCharges};

} // namespace

Result<VariantEvaluator>
VariantEvaluator::create(DramDescription nominal)
{
    Result<DramPowerModel> model =
        DramPowerModel::create(std::move(nominal));
    if (!model.ok())
        return model.error();
    return VariantEvaluator(std::move(model.value()));
}

VariantEvaluator::VariantEvaluator(DramPowerModel nominalModel)
    : model_(std::move(nominalModel)),
      // Snapshot AFTER the build so the floorplan is resolved: restores
      // then reproduce exactly what a fresh create() would compute.
      nominal_(model_.description())
{
}

StageMask
VariantEvaluator::stagesFor(DirtyMask dirty)
{
    if (dirty & kDirtyStructure)
        return kStageAll;
    StageMask stages = 0;
    if (dirty & kDirtyTechnology) {
        // Device/wire caps feed every load and the signal cache; the
        // charges read both.
        stages |= kStageLoads | kStageSignalCache | kStageCharges;
    }
    if (dirty & kDirtyElectrical) {
        // Voltages/efficiencies only multiply into the charge budgets
        // (Vint is deliberately kept out of the signal cache).
        stages |= kStageCharges;
    }
    if (dirty & kDirtyLogicBlocks)
        stages |= kStageCharges;
    if (dirty & kDirtySignals)
        stages |= kStageSignalCache | kStageCharges;
    return stages;
}

void
VariantEvaluator::restorePerturbedGroups()
{
    if (!perturbed_)
        return;
    DramDescription& d = model_.desc_;
    if (perturbed_ & kDirtyTechnology)
        d.tech = nominal_.tech;
    if (perturbed_ & kDirtyElectrical)
        d.elec = nominal_.elec;
    if (perturbed_ & kDirtyLogicBlocks)
        d.logicBlocks = nominal_.logicBlocks;
    if (perturbed_ & kDirtySignals) {
        d.signals = nominal_.signals;
        model_.invalidateSegmentLengths();
    }
    if (perturbed_ & kDirtyStructure) {
        d.name = nominal_.name;
        d.arch = nominal_.arch;
        d.spec = nominal_.spec;
        d.timing = nominal_.timing;
        d.floorplan = nominal_.floorplan;
        d.pattern = nominal_.pattern;
        // Patterns cached while the structure was perturbed were built
        // from the perturbed spec/timing; drop them with the restore.
        iddPatternReady_.fill(false);
        paretoPatternReady_ = false;
    }
    stale_ |= stagesFor(perturbed_);
    perturbed_ = 0;
}

void
VariantEvaluator::rebuild(StageMask stages)
{
    if (metricsEnabled()) {
        EvaluatorInstruments& m = evaluatorInstruments();
        for (int i = 0; i < 4; ++i) {
            if (stages & kStageBits[i])
                m.stage[i].miss.add();
            else
                m.stage[i].hit.add();
        }
    }
    model_.rebuildStages(stages);
    if (stages & kStageCharges)
        chargeTableReady_ = false;
}

void
VariantEvaluator::ensureFresh()
{
    if (stale_) {
        rebuild(stale_);
        stale_ = 0;
    }
}

const ChargeTable&
VariantEvaluator::chargeTable()
{
    if (metricsEnabled()) {
        EvaluatorInstruments& m = evaluatorInstruments();
        (chargeTableReady_ ? m.chargeTableHit : m.chargeTableMiss).add();
    }
    if (!chargeTableReady_) {
        chargeTable_ = makeChargeTable(model_.ops_, model_.desc_.elec);
        chargeTableReady_ = true;
    }
    return chargeTable_;
}

Status
VariantEvaluator::applyPerturbation(
    const std::function<void(DramDescription&)>& mutate, DirtyMask dirty)
{
    restorePerturbedGroups();
    if (metricsEnabled()) {
        EvaluatorInstruments& m = evaluatorInstruments();
        for (const auto& group : m.dirty) {
            if (dirty & group.bit)
                group.count.add();
        }
    }
    mutate(model_.desc_);
    perturbed_ = dirty;
    if (dirty & kDirtySignals)
        model_.invalidateSegmentLengths();
    if (dirty & kDirtyStructure) {
        // Structure changes can invalidate the cached measurement
        // patterns (they derive from spec/timing).
        iddPatternReady_.fill(false);
        paretoPatternReady_ = false;
    }

    Status status = revalidateDirtyGroups(model_.desc_, dirty);
    if (!status.ok()) {
        // Roll back so the evaluator stays usable; the stages stay
        // stale until the next evaluation or perturbation.
        restorePerturbedGroups();
        return status;
    }

    rebuild(stale_ | stagesFor(dirty));
    stale_ = 0;
    return Status::okStatus();
}

void
VariantEvaluator::reset()
{
    restorePerturbedGroups();
    ensureFresh();
}

void
VariantEvaluator::ensureIddPattern(size_t index)
{
    if (metricsEnabled()) {
        EvaluatorInstruments& m = evaluatorInstruments();
        (iddPatternReady_[index] ? m.patternHit : m.patternMiss).add();
    }
    if (!iddPatternReady_[index]) {
        iddPatterns_[index] =
            makeIddPattern(static_cast<IddMeasure>(index),
                           model_.desc_.spec, model_.desc_.timing);
        iddStats_[index] = makePatternStats(iddPatterns_[index]);
        iddPatternReady_[index] = true;
    }
}

double
VariantEvaluator::idd(IddMeasure measure)
{
    ensureFresh();
    const size_t i = static_cast<size_t>(measure);
    ensureIddPattern(i);
    return patternExternalCurrent(iddStats_[i], chargeTable(),
                                  model_.desc_.elec,
                                  model_.desc_.timing.tCkSeconds);
}

void
VariantEvaluator::iddBatch(const IddMeasure* measures, size_t n,
                           double* out)
{
    if (n == 0)
        return;
    ensureFresh();
    const ChargeTable& table = chargeTable();
    // Chunked so the lane pointers live on the stack: a chunk is the
    // full datasheet (kIddMeasureCount measures) — the common n.
    const PatternStats* stats[kIddMeasureCount];
    size_t done = 0;
    while (done < n) {
        const size_t chunk = std::min(
            n - done, static_cast<size_t>(kIddMeasureCount));
        for (size_t j = 0; j < chunk; ++j) {
            const size_t i = static_cast<size_t>(measures[done + j]);
            ensureIddPattern(i);
            stats[j] = &iddStats_[i];
        }
        patternExternalCurrentBatch(stats, static_cast<int>(chunk),
                                    table, model_.desc_.elec,
                                    model_.desc_.timing.tCkSeconds,
                                    out + done);
        done += chunk;
    }
}

const Pattern&
VariantEvaluator::paretoPattern()
{
    if (!paretoPatternReady_) {
        paretoPattern_ =
            makeParetoPattern(model_.desc_.spec, model_.desc_.timing);
        paretoStats_ = makePatternStats(paretoPattern_);
        paretoPatternReady_ = true;
    }
    return paretoPattern_;
}

double
VariantEvaluator::paretoPower()
{
    ensureFresh();
    paretoPattern(); // fills paretoStats_
    // power = externalCurrent * vdd, the same multiply
    // computePatternPower() performs.
    return patternExternalCurrent(paretoStats_, chargeTable(),
                                  model_.desc_.elec,
                                  model_.desc_.timing.tCkSeconds) *
           model_.desc_.elec.vdd;
}

PatternPower
VariantEvaluator::evaluateDefault()
{
    ensureFresh();
    return model_.evaluateDefault();
}

} // namespace vdram
