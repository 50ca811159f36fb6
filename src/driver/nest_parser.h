/**
 * @file
 * A small text format for loop nests, so the uovc driver (and tests)
 * can consume programs without writing C++:
 *
 *     # comments and blank lines are ignored
 *     nest stencil5
 *     bounds 1..18 0..99        # one lo..hi range per dimension
 *     statement B
 *       write B[0,0]
 *       read  B[-1,-2]
 *       read  B[-1,-1]
 *       read  B[-1,0]
 *       read  B[-1,1]
 *       read  B[-1,2]
 *
 * Accesses are uniform: NAME[o1,o2,...] means NAME[q + (o1,o2,...)].
 * Multiple `statement` blocks build multi-assignment nests.  A line
 * holds exactly its fields, and every integer is one whole token.
 */

#ifndef UOV_DRIVER_NEST_PARSER_H
#define UOV_DRIVER_NEST_PARSER_H

#include <istream>
#include <string>
#include <string_view>

#include "ir/program.h"

namespace uov {

/**
 * Parse one nest description.
 * @throws UovUserError with a line-numbered message on malformed input
 */
LoopNest parseNest(std::istream &in);

/** The same, over the whole text of a description. */
LoopNest parseNestString(std::string_view text);

/** Serialize a nest back to the text format (round-trip tested). */
std::string formatNest(const LoopNest &nest);

} // namespace uov

#endif // UOV_DRIVER_NEST_PARSER_H
