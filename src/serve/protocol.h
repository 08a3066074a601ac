#ifndef CALYX_SERVE_PROTOCOL_H
#define CALYX_SERVE_PROTOCOL_H

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "sim/batch.h"
#include "support/json.h"

namespace calyx::serve {

/**
 * Wire framing for `futil --serve` (docs/simulation.md): every message
 * in either direction is one frame — the payload's byte length in
 * ASCII decimal, a single '\n', then exactly that many payload bytes.
 * Length-prefixing keeps the reader trivial (no JSON-boundary
 * scanning) and lets a client stream requests back to back over the
 * same pipe. Payloads are JSON documents:
 *
 *   request  := { "type": "ping" }
 *             | { "type": "run", "batch": [ stimulus, ... ] }
 *             | { "type": "compile", "source": "<calyx program>",
 *                 "pipeline"?: "<spec>", "backend"?: "<name>" }
 *             | { "type": "stats" }
 *             | { "type": "shutdown" }
 *   stimulus := { "mems": { "<cell path>": [ <word>, ... ], ... } }
 *
 *   response := { "ok": true,  "type": "<request type>",
 *                 "result": ... }
 *             | { "ok": false, "error": "<message>" }
 *
 * A run response's result is { "lanes": [ lane, ... ] } in batch
 * order, lane := { "cycles": N, "regs": { "<cell path>": value },
 * "mems": { "<cell path>": [ <word>, ... ] } } — the same
 * architectural snapshot a scalar CycleSim::run() leaves behind.
 *
 * A compile response's result is { "artifact": "<emitted text>",
 * "backend", "pipeline" (normalized spec), "components",
 * "artifact_from_cache", "raw_text_hit", "compile_ms", "passes_run" }
 * — the artifact is byte-identical to what `futil -b <backend> -p
 * <spec>` emits for the same source (docs/service.md has the cache-key
 * contract). Unknown request types are rejected with a did-you-mean
 * suggestion.
 */

/// 64 MiB: a frame length above this is framing garbage, not a batch.
constexpr uint64_t maxFrameBytes = 64ull << 20;

enum class FrameStatus
{
    Ok,  ///< `payload` holds one complete frame.
    Eof, ///< Clean end of stream before any length byte.
    Bad, ///< Malformed framing (see `err`); the stream is unusable.
};

/** Read one length-prefixed frame. Framing errors are unrecoverable
 * by design: after a bad length line there is no way to find the next
 * frame boundary, so the server answers once and closes. */
FrameStatus readFrame(std::istream &in, std::string &payload,
                      std::string &err);

/** Write one frame and flush (clients block on whole responses). */
void writeFrame(std::ostream &out, const std::string &payload);

/** Decode a request's `batch` array into runner stimuli. fatal()s on
 * shape errors (non-array batch, non-object stimulus, bad word). The
 * memory paths are validated later by the runner itself, which knows
 * the design's memories. */
std::vector<sim::Stimulus> parseStimuli(const json::Value &batch);

/** Lane results as the response `result` object (batch order). */
json::Value lanesJson(const std::vector<sim::LaneResult> &lanes,
                      const std::vector<std::string> &regPaths,
                      const std::vector<std::string> &memPaths);

/** { "ok": false, "error": msg } serialized. */
std::string errorResponse(const std::string &msg);

/** { "ok": true, "type": type, "result": result } serialized. */
std::string okResponse(const std::string &type, json::Value result);

} // namespace calyx::serve

#endif // CALYX_SERVE_PROTOCOL_H
