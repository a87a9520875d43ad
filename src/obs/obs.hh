/**
 * @file
 * Umbrella header for the observability layer: metrics registry
 * (obs/metrics.hh), structured spans (obs/span.hh), structured
 * logging (obs/log.hh) and the always-on flight recorder
 * (obs/flight.hh). See docs/OBSERVABILITY.md for the metric
 * catalog, span hierarchy and export formats.
 *
 * setEnabled() flips metrics + tracing together (the opt-in,
 * export-oriented halves). The logger keeps its own switch (enabled
 * by --log-out), and the flight recorder is on by default — neither
 * is touched here.
 */

#ifndef REQISC_OBS_OBS_HH
#define REQISC_OBS_OBS_HH

#include "obs/flight.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace reqisc::obs
{

/** Turn metrics collection and span tracing on/off together. */
inline void setEnabled(bool on)
{
    Registry::global().setEnabled(on);
    Tracer::global().setEnabled(on);
}

} // namespace reqisc::obs

#endif // REQISC_OBS_OBS_HH
