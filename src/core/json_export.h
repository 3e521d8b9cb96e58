/**
 * @file
 * Machine-readable result export: the model's evaluation results as
 * JSON documents, for downstream tooling (plotting, regression
 * dashboards, design-space scripts).
 */
#ifndef VDRAM_CORE_JSON_EXPORT_H
#define VDRAM_CORE_JSON_EXPORT_H

#include <string>

#include "core/model.h"

namespace vdram {

/** A full device evaluation: identity, die geometry, the standard IDD
 *  table and the default-pattern breakdown. */
std::string modelToJson(const DramPowerModel& model);

} // namespace vdram

#endif // VDRAM_CORE_JSON_EXPORT_H
