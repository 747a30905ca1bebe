/**
 * @file
 * Unit tests for the core unit inventory: the floorplan aggregates
 * the AgileWatts power/area model is built on.
 */

#include <gtest/gtest.h>

#include "uarch/core_units.hh"

namespace {

using namespace aw::uarch;

TEST(UnitInventory, UfpgDomainIsSeventyPercent)
{
    const auto inv = UnitInventory::skylakeServer();
    EXPECT_NEAR(inv.areaFraction(PowerDomain::Ufpg), 0.70, 1e-9);
    EXPECT_NEAR(inv.leakageFraction(PowerDomain::Ufpg), 0.70, 1e-9);
}

TEST(UnitInventory, CacheDomainIsRoughlyThirtyPercent)
{
    const auto inv = UnitInventory::skylakeServer();
    EXPECT_NEAR(inv.areaFraction(PowerDomain::CacheSleep), 0.30,
                0.01);
}

TEST(UnitInventory, TotalsSumToOne)
{
    const auto inv = UnitInventory::skylakeServer();
    EXPECT_NEAR(inv.totalAreaFraction(), 1.0, 0.005);
    EXPECT_NEAR(inv.totalLeakageFraction(), 1.0, 0.005);
}

TEST(UnitInventory, UfpgToAvxRatioIsFourPointFive)
{
    // The Sec 5.3 in-rush sizing: the UFPG domain has ~4.5x the
    // area of the AVX units.
    const auto inv = UnitInventory::skylakeServer();
    EXPECT_NEAR(inv.ufpgToAvxAreaRatio(), 4.5, 0.1);
}

TEST(UnitInventory, AvxUnitsAreInUfpgDomain)
{
    const auto inv = UnitInventory::skylakeServer();
    for (const auto &u : inv.units()) {
        if (u.isAvx) {
            EXPECT_EQ(u.domain, PowerDomain::Ufpg) << u.name;
        }
    }
}

TEST(UnitInventory, EveryUfpgUnitHasARetentionTechnique)
{
    const auto inv = UnitInventory::skylakeServer();
    for (const auto &u : inv.units()) {
        if (u.domain == PowerDomain::Ufpg) {
            EXPECT_TRUE(u.retention.has_value()) << u.name;
        } else {
            EXPECT_FALSE(u.retention.has_value()) << u.name;
        }
    }
}

TEST(UnitInventory, MicrocodeUsesUngatedSram)
{
    const auto inv = UnitInventory::skylakeServer();
    const auto &ucode = inv.unit("microcode");
    ASSERT_TRUE(ucode.retention.has_value());
    EXPECT_EQ(*ucode.retention,
              aw::power::RetentionTechnique::UngatedSram);
}

TEST(UnitInventory, DistributedContextUsesSrpg)
{
    const auto inv = UnitInventory::skylakeServer();
    const auto &lsu = inv.unit("load_store");
    ASSERT_TRUE(lsu.retention.has_value());
    EXPECT_EQ(*lsu.retention,
              aw::power::RetentionTechnique::Srpg);
}

TEST(UnitInventory, AlwaysOnSnoopDetectorIsTiny)
{
    const auto inv = UnitInventory::skylakeServer();
    EXPECT_LT(inv.areaFraction(PowerDomain::AlwaysOn), 0.01);
    EXPECT_GT(inv.areaFraction(PowerDomain::AlwaysOn), 0.0);
}

TEST(UnitInventoryDeathTest, UnknownUnitPanics)
{
    const auto inv = UnitInventory::skylakeServer();
    EXPECT_DEATH(inv.unit("flux_capacitor"), "no unit");
}

TEST(UnitInventoryDeathTest, EmptyInventoryPanics)
{
    EXPECT_DEATH(UnitInventory({}), "empty");
}

TEST(UnitInventory, CustomInventory)
{
    std::vector<CoreUnit> units;
    units.push_back(CoreUnit{"a", PowerDomain::Ufpg, 0.6, 0.5,
                             aw::power::RetentionTechnique::Srpg,
                             false});
    units.push_back(CoreUnit{"b", PowerDomain::CacheSleep, 0.4, 0.5,
                             std::nullopt, false});
    const UnitInventory inv(std::move(units));
    EXPECT_DOUBLE_EQ(inv.areaFraction(PowerDomain::Ufpg), 0.6);
    EXPECT_DOUBLE_EQ(inv.leakageFraction(PowerDomain::CacheSleep),
                     0.5);
}

} // namespace
