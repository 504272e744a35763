#include "cache/replacement.hh"

namespace slip {

const char *
replCliName(ReplKind kind)
{
    switch (kind) {
      case ReplKind::Lru:
        return "lru";
      case ReplKind::Rrip:
        return "rrip";
      case ReplKind::Random:
        return "random";
    }
    return "?";
}

bool
parseReplKind(const std::string &v, ReplKind &out)
{
    if (v == "lru")
        out = ReplKind::Lru;
    else if (v == "rrip")
        out = ReplKind::Rrip;
    else if (v == "random")
        out = ReplKind::Random;
    else
        return false;
    return true;
}

} // namespace slip
