/**
 * @file
 * Item debugging helpers.
 */

#include "item.hh"

namespace fafnir::core
{

std::string
Item::toString() const
{
    std::string s = "[indices:" + indices.toString() + " | queries:";
    for (std::size_t i = 0; i < queries.size(); ++i) {
        if (i)
            s += ' ';
        s += 'q' + std::to_string(queries[i]);
    }
    return s + "]";
}

} // namespace fafnir::core
