// Service tuning from a JSON document.
//
// The service benches accept `--config <file.json>` so soak/scale
// campaigns can be re-tuned without a rebuild. The document is a flat
// object of optional keys mirroring ServiceOptions (unknown keys are
// rejected — a typo must fail loudly, not silently run the defaults):
//
//   {
//     "shards": 4, "queue_capacity": 128, "resident_per_shard": 1024,
//     "default_deadline_s": 0.05, "retry_after_s": 0.005,
//     "deadline_safety": 3.0, "ewma_alpha": 0.2,
//     "unsampled_tier_cost_s": 0.0,
//     "evict_retries": 3, "restore_retries": 3, "io_backoff_s": 0.0005,
//     "seed": 2024,
//     "store": { "sync": "always" | "batched" | "never",
//                "batch_every": 64, "compact_every": 0 }
//   }
//
// Parsing runs through util/json_parse.hpp (fuzz-hardened); validation
// failures throw std::invalid_argument with the offending key.
#pragma once

#include <string>

#include "svc/session_service.hpp"

namespace evc::svc {

/// Overlay the keys present in `json_text` onto `options`. Untouched
/// fields keep their current values. Throws JsonParseError on malformed
/// JSON, std::invalid_argument on unknown keys or out-of-domain values.
void apply_service_config_json(ServiceOptions& options,
                               const std::string& json_text);

/// The config spelling of a sync policy: "always", "batched" or "never".
const char* to_string(SyncPolicy policy);

}  // namespace evc::svc
