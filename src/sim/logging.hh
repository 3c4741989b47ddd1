/**
 * @file
 * Error / status reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - internal simulator bug; aborts.
 * fatal()  - user/configuration error; exits cleanly with an error code.
 * warn()   - suspicious but non-fatal condition.
 * inform() - status message.
 */

#ifndef PCSIM_SIM_LOGGING_HH
#define PCSIM_SIM_LOGGING_HH

#include <cstdarg>

namespace pcsim
{

[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace pcsim

#endif // PCSIM_SIM_LOGGING_HH
