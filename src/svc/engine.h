// The service's game state is core::PricingEngine (core/pricing_engine.h),
// the one grid-side update every driver runs.  svc::ServiceConfig and the
// serving tools name it through these declarations.
#pragma once

#include "core/pricing_engine.h"

namespace olev::svc {

using core::EngineConfig;
using core::EngineMode;
using core::PricingEngine;

}  // namespace olev::svc
