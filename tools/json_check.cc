/**
 * @file
 * Strict JSON checker over stdin (exit 0 = valid RFC 8259 in
 * well-formed UTF-8).
 *
 * The CI daemon-smoke job pipes every roboshaped response body through
 * this so "the endpoint answered" also means "the endpoint answered with
 * JSON that parses", using obs::validate_json, which applies the
 * daemon's own request reader (obs::parse_json): nesting cap, paired
 * surrogate escapes, finite numbers and well-formed UTF-8 included.
 * Also handy interactively:
 *
 *   curl -s localhost:8080/v1/sweep -d '{"robot":"iiwa"}' | json_check
 */

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.h"

int
main()
{
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    const std::string text = buffer.str();
    if (text.empty()) {
        std::fprintf(stderr, "json_check: empty input\n");
        return 1;
    }
    std::string error;
    if (!roboshape::obs::validate_json(text, &error)) {
        std::fprintf(stderr, "json_check: invalid JSON: %s\n",
                     error.c_str());
        return 1;
    }
    return 0;
}
