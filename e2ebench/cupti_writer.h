// Writes a Trace as the CUPTI-style JSON-lines record stream that
// src/trace/import_cupti.h reads, so the cold-predict workload can ask the
// same question of one profile in all three ingestion formats.
//
// The stream carries what a CUPTI activity dump carries: the importer derives
// a runtime call's ApiKind from its name, so a call whose recorded name does
// not start with its CUDA API name is written as "<cudaApi>_<name>". The
// import is then not byte-identical to the source trace; ExactRoundTrip tells
// the caller which case it got.
#ifndef E2EBENCH_CUPTI_WRITER_H_
#define E2EBENCH_CUPTI_WRITER_H_

#include <string>

#include "src/trace/trace.h"

namespace e2ebench {

bool WriteCuptiTraceFile(const daydream::Trace& trace, const std::string& path);

// True when `imported` reproduces every field of every event, the gradient
// side channel and the metadata of `original`.
bool ExactRoundTrip(const daydream::Trace& original, const daydream::Trace& imported);

}  // namespace e2ebench

#endif  // E2EBENCH_CUPTI_WRITER_H_
