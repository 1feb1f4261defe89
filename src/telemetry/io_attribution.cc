#include "telemetry/io_attribution.h"

namespace gemstone::telemetry {

IoTally& ThreadIoTally() {
  thread_local IoTally tally;
  return tally;
}

namespace {
thread_local bool tls_historical_access = false;
}  // namespace

bool ThreadAccessIsHistorical() { return tls_historical_access; }

HistoricalAccessScope::HistoricalAccessScope(bool historical)
    : saved_(tls_historical_access) {
  tls_historical_access = saved_ || historical;
}

HistoricalAccessScope::~HistoricalAccessScope() {
  tls_historical_access = saved_;
}

}  // namespace gemstone::telemetry
