/**
 * @file
 * uovd's command line as one value: serviceFlags() declares each flag
 * once and parses argv into a ServiceConfig.
 */

#ifndef UOV_DRIVER_SERVICE_CONFIG_H
#define UOV_DRIVER_SERVICE_CONFIG_H

#include "service/executor.h"
#include "support/flags.h"
#include "support/logging.h"

namespace uov {
namespace service {

/** Everything uovd's flags set, at uovd's defaults (uovd --help). */
struct ServiceConfig
{
    ServiceOptions service;
    AdmissionOptions admission;
    std::string input_path, output_path; ///< "" or "-": stdin, stdout
    std::vector<std::string> nest_paths;
    unsigned threads = 0; ///< 0 = hardware
    int64_t request_deadline_ms = -1;
    int64_t admin_port = -1; ///< -1 = no admin plane, 0 = ephemeral
    std::string admin_port_file, trace_path;
    std::string metrics_path; ///< "" = none, "-" = stderr
    size_t flight_size = 256;
    LogLevel log_level = LogLevel::Warn;
    bool admin_hold = false, trace_ids = false, log_json = false;
    bool version = false;
};

/** uovd's flag table, writing into @p config (which must outlive it);
 *  the setters validate, so a parsed config is a valid one. */
FlagTable serviceFlags(ServiceConfig &config);

} // namespace service
} // namespace uov

#endif // UOV_DRIVER_SERVICE_CONFIG_H
