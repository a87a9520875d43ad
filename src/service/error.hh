/**
 * @file
 * The one structured error shape shared by every failure surface:
 * daemon wire responses, JobResult::errorInfo, and the CLI exit
 * paths.
 *
 * An ApiError carries a stable kebab-case `code` (the wire
 * identifier clients branch on), the HTTP status the daemon maps it
 * to, a one-line human `message`, and optional `detail` context
 * (file:line, the offending token). Codes are versioned with the
 * wire schema (service/api.hh): existing codes never change meaning
 * within an apiVersion; new ones may be added.
 *
 * Inside the service, failures that have a distinct code are thrown
 * as ApiException and classified in CompileService::runJob; anything
 * else (an unexpected std::exception) becomes `internal`.
 */

#ifndef REQISC_SERVICE_ERROR_HH
#define REQISC_SERVICE_ERROR_HH

#include <stdexcept>
#include <string>

namespace reqisc::service
{

/** Well-known error codes (the wire contract; see docs/SERVICE.md). */
namespace errc
{
inline constexpr const char *kBadRequest = "bad-request";
inline constexpr const char *kParseError = "parse-error";
inline constexpr const char *kBadPipelineSpec = "bad-pipeline-spec";
inline constexpr const char *kBadChipFile = "bad-chip-file";
inline constexpr const char *kNotFound = "not-found";
inline constexpr const char *kMethodNotAllowed = "method-not-allowed";
inline constexpr const char *kNotReady = "not-ready";
inline constexpr const char *kNotCancelable = "not-cancelable";
inline constexpr const char *kAlreadyCompleted = "already-completed";
inline constexpr const char *kCanceled = "canceled";
inline constexpr const char *kBodyTooLarge = "body-too-large";
inline constexpr const char *kQueueFull = "queue-full";
inline constexpr const char *kQuotaExceeded = "quota-exceeded";
/** No longer raised (calibration cannot fail on its own); kept
 *  because v1 never drops a code. */
inline constexpr const char *kCalibrateFailed = "calibrate-failed";
inline constexpr const char *kShuttingDown = "shutting-down";
inline constexpr const char *kInternal = "internal";
} // namespace errc

/** Structured error: {code, httpStatus, message, detail}. */
struct ApiError
{
    std::string code;     //!< stable wire identifier (errc::*)
    int httpStatus = 500;
    std::string message;  //!< one-line human description
    std::string detail;   //!< optional context ("", when none)

    /** True when this carries an error (default-constructed = none). */
    bool isError() const { return !code.empty(); }
};

/** HTTP status a well-known code maps to (500 for unknown codes). */
int httpStatusForCode(const std::string &code);

/** Build an ApiError with the code's canonical HTTP status. */
ApiError makeError(const std::string &code, std::string message,
                   std::string detail = "");

/**
 * An ApiError as a C++ exception, for the classified throw sites in
 * the service and daemon. what() is the message alone.
 */
class ApiException : public std::runtime_error
{
  public:
    explicit ApiException(ApiError err)
        : std::runtime_error(err.message), err_(std::move(err))
    {
    }

    const ApiError &error() const { return err_; }

  private:
    ApiError err_;
};

} // namespace reqisc::service

#endif // REQISC_SERVICE_ERROR_HH
