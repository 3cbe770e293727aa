// Umbrella header: the Plumber public API.
//
// Typical use (the "one line of code" experience, via Session + Flow):
//
//   plumber::Session session;
//   auto flow = session.Files("train/").Interleave(4).Map("decode")
//                   .ShuffleAndRepeat(128).Batch(32);
//   auto optimized = flow.Optimize();       // trace -> LP -> rewrite
//   auto report    = optimized->Run(opts);  // measured run
//
// Underneath sits the documented low-level layer — GraphBuilder,
// PipelineOptions, Pipeline::Create, RunIterator — for tooling that
// needs manual control; CaptureTrace + PipelineModel expose the
// per-Dataset resource-accounted rates directly.
#pragma once

#include "src/api/flow.h"
#include "src/api/job_handle.h"
#include "src/api/session.h"
#include "src/core/multi_job_planner.h"
#include "src/core/machine.h"
#include "src/core/model.h"
#include "src/core/optimizer.h"
#include "src/core/passes/pass.h"
#include "src/core/planner.h"
#include "src/core/provisioner.h"
#include "src/core/rewriter.h"
#include "src/core/roofline.h"
#include "src/core/tracer.h"
#include "src/pipeline/graph_builder.h"
#include "src/pipeline/pipeline.h"
#include "src/pipeline/runner.h"
