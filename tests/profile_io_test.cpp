// Tests for drive-profile CSV round-tripping and malformed-input handling.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "drivecycle/profile_io.hpp"
#include "drivecycle/standard_cycles.hpp"

namespace evc::drive {
namespace {

class ProfileIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per case and process: ctest runs every case as its own
  // process, and a parallel run would otherwise have them rewrite and
  // remove each other's file.
  const std::string path_ =
      (std::filesystem::temp_directory_path() /
       ("evc_profile_io_test_" +
        std::string(::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()) +
        "_" + std::to_string(::getpid()) + ".csv"))
          .string();
};

TEST_F(ProfileIoTest, RoundTripPreservesSamples) {
  const DriveProfile original =
      make_cycle_profile(StandardCycle::kSc03, 31.0);
  save_profile_csv(original, path_);
  const DriveProfile loaded = load_profile_csv(path_, "loaded", 1.0);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); i += 37) {
    EXPECT_NEAR(loaded[i].speed_mps, original[i].speed_mps, 1e-9);
    EXPECT_NEAR(loaded[i].accel_mps2, original[i].accel_mps2, 1e-9);
    EXPECT_NEAR(loaded[i].ambient_c, original[i].ambient_c, 1e-9);
  }
  EXPECT_EQ(loaded.name(), "loaded");
}

TEST_F(ProfileIoTest, ThreeColumnFormReconstructsAcceleration) {
  {
    std::ofstream out(path_);
    out << "speed_mps,slope_percent,ambient_c\n";
    out << "0,0,20\n2,0,20\n6,0,20\n6,0,20\n";
  }
  const DriveProfile p = load_profile_csv(path_, "3col", 1.0);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_NEAR(p[0].accel_mps2, 2.0, 1e-12);
  EXPECT_NEAR(p[1].accel_mps2, 4.0, 1e-12);
  EXPECT_NEAR(p[3].accel_mps2, 0.0, 1e-12);
}

TEST_F(ProfileIoTest, SkipsBlankLines) {
  {
    std::ofstream out(path_);
    out << "h\n1,0,20\n\n2,0,20\n";
  }
  EXPECT_EQ(load_profile_csv(path_, "x", 1.0).size(), 2u);
}

TEST_F(ProfileIoTest, RejectsMalformedInput) {
  {
    std::ofstream out(path_);
    out << "header\n1,2\n";  // two columns
  }
  EXPECT_THROW(load_profile_csv(path_, "x", 1.0), std::invalid_argument);
  {
    std::ofstream out(path_);
    out << "header\n1,abc,0,20\n";  // non-numeric
  }
  EXPECT_THROW(load_profile_csv(path_, "x", 1.0), std::invalid_argument);
  {
    std::ofstream out(path_);
    out << "header\n1,0,20\n1,0,0,20\n";  // inconsistent columns
  }
  EXPECT_THROW(load_profile_csv(path_, "x", 1.0), std::invalid_argument);
  {
    std::ofstream out(path_);
    out << "header only\n";
  }
  EXPECT_THROW(load_profile_csv(path_, "x", 1.0), std::invalid_argument);
  EXPECT_THROW(load_profile_csv("/nonexistent/nope.csv", "x", 1.0),
               std::invalid_argument);
}

TEST_F(ProfileIoTest, RejectsPhysicallyInvalidData) {
  {
    std::ofstream out(path_);
    out << "header\n-1,0,0,20\n";  // negative speed
  }
  EXPECT_THROW(load_profile_csv(path_, "x", 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace evc::drive
