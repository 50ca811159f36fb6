#include "kernels/heat3d.h"

namespace uov {

const std::vector<Heat3DVariant> &
allHeat3DVariants()
{
    static const std::vector<Heat3DVariant> all = {
        Heat3DVariant::StorageOptimized, Heat3DVariant::Natural,
        Heat3DVariant::NaturalTiled,     Heat3DVariant::Ov,
        Heat3DVariant::OvTiled,
    };
    return all;
}

const char *
heat3DVariantName(Heat3DVariant v)
{
    switch (v) {
      case Heat3DVariant::Natural:          return "Natural";
      case Heat3DVariant::NaturalTiled:     return "Natural Tiled";
      case Heat3DVariant::Ov:               return "OV-Mapped";
      case Heat3DVariant::OvTiled:          return "OV-Mapped Tiled";
      case Heat3DVariant::StorageOptimized: return "Storage Optimized";
    }
    return "?";
}

bool
heat3DVariantTiled(Heat3DVariant v)
{
    return v == Heat3DVariant::NaturalTiled ||
           v == Heat3DVariant::OvTiled;
}

std::vector<float>
heat3DInput(int64_t nx, int64_t ny, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<float> input(static_cast<size_t>(nx * ny));
    for (auto &v : input)
        v = static_cast<float>(rng.nextDouble());
    return input;
}

} // namespace uov
