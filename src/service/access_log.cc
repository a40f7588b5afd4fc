/**
 * @file
 * Implementation of the JSON-lines access log.
 */

#include "service/access_log.h"

#include "obs/json.h"

namespace roboshape {
namespace service {

bool
AccessLog::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    out_.open(path, std::ios::out | std::ios::app);
    if (!out_.is_open()) {
        error_ = "cannot open access log '" + path + "'";
        return false;
    }
    return true;
}

bool
AccessLog::is_open() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return out_.is_open();
}

void
AccessLog::write(const RequestRecord &r)
{
    obs::JsonWriter w;
    write_request_json(w, r);
    std::lock_guard<std::mutex> lock(mu_);
    if (!out_.is_open())
        return;
    out_ << w.str() << '\n';
    out_.flush();
}

void
AccessLog::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (out_.is_open())
        out_.flush();
}

void
AccessLog::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (out_.is_open()) {
        out_.flush();
        out_.close();
    }
}

} // namespace service
} // namespace roboshape
