/**
 * @file
 * The JSON reader under its old service:: names.
 *
 * parse_json() and JsonValue live in obs/json.h, beside the writer, so
 * that one reader serves the daemon's request bodies and every check of
 * an emitted artifact.  This header remains only because
 * perfbench/checks.cc and perfbench/design_cold.cc include it and spell
 * service::parse_json, and the benchmark's sources change only in
 * changes of their own.  The benchmark change that moves them to
 * obs/json.h deletes this file.
 */

#ifndef ROBOSHAPE_SERVICE_JSON_VALUE_H
#define ROBOSHAPE_SERVICE_JSON_VALUE_H

#include "obs/json.h"

namespace roboshape {
namespace service {

using obs::JsonValue;
using obs::parse_json;
using obs::kMaxJsonDepth;

} // namespace service
} // namespace roboshape

#endif // ROBOSHAPE_SERVICE_JSON_VALUE_H
