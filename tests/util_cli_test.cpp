#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace gb {
namespace {

TEST(cli_test, parse_integer_accepts_full_consume_base10) {
    EXPECT_EQ(parse_integer("0"), 0);
    EXPECT_EQ(parse_integer("48"), 48);
    EXPECT_EQ(parse_integer("-17"), -17);
    EXPECT_EQ(parse_integer("9223372036854775807"),
              9223372036854775807LL);
}

TEST(cli_test, parse_integer_rejects_garbage) {
    // The whole point of replacing atoi: trailing junk, empty strings and
    // overflow must be nullopt, not silently 0 or truncated.
    EXPECT_EQ(parse_integer(""), std::nullopt);
    EXPECT_EQ(parse_integer("48x"), std::nullopt);
    EXPECT_EQ(parse_integer("4 8"), std::nullopt);
    EXPECT_EQ(parse_integer(" 48"), std::nullopt);
    EXPECT_EQ(parse_integer("x48"), std::nullopt);
    EXPECT_EQ(parse_integer("4.8"), std::nullopt);
    EXPECT_EQ(parse_integer("9223372036854775808"), std::nullopt);
    EXPECT_EQ(parse_integer("--3"), std::nullopt);
    EXPECT_EQ(parse_integer("+3"), std::nullopt); // from_chars: no '+'
}

TEST(cli_test, parse_number_accepts_finite_floats) {
    EXPECT_DOUBLE_EQ(*parse_number("60"), 60.0);
    EXPECT_DOUBLE_EQ(*parse_number("60.5"), 60.5);
    EXPECT_DOUBLE_EQ(*parse_number("-0.25"), -0.25);
    EXPECT_DOUBLE_EQ(*parse_number("1e3"), 1000.0);
}

TEST(cli_test, parse_number_rejects_garbage_and_non_finite) {
    EXPECT_EQ(parse_number(""), std::nullopt);
    EXPECT_EQ(parse_number("60.5C"), std::nullopt);
    EXPECT_EQ(parse_number("temp"), std::nullopt);
    EXPECT_EQ(parse_number(" 60"), std::nullopt);
    EXPECT_EQ(parse_number("nan"), std::nullopt);
    EXPECT_EQ(parse_number("inf"), std::nullopt);
    EXPECT_EQ(parse_number("1e999"), std::nullopt);
}

TEST(cli_test, positional_args_fall_back_when_absent) {
    char prog[] = "prog";
    char* argv[] = {prog, nullptr};
    EXPECT_EQ(int_arg(1, argv, 1, 48, "phases", 1, 100), 48);
    EXPECT_DOUBLE_EQ(double_arg(1, argv, 1, 60.0, "temp", 20.0, 90.0), 60.0);
}

TEST(cli_test, positional_args_parse_when_present) {
    char prog[] = "prog";
    char phases[] = "24";
    char temp[] = "55.5";
    char* argv[] = {prog, phases, temp, nullptr};
    EXPECT_EQ(int_arg(3, argv, 1, 48, "phases", 1, 100), 24);
    EXPECT_DOUBLE_EQ(double_arg(3, argv, 2, 60.0, "temp", 20.0, 90.0),
                     55.5);
}

TEST(cli_test, take_flag_value_consumes_space_and_equals_forms) {
    char prog[] = "prog";
    char flag[] = "--trace";
    char value[] = "out.json";
    char eq[] = "--metrics=m.json";
    char positional[] = "6";
    char* argv[] = {prog, flag, value, eq, positional, nullptr};
    int argc = 5;
    EXPECT_EQ(take_flag_value(argc, argv, "--trace"), "out.json");
    EXPECT_EQ(take_flag_value(argc, argv, "--metrics"), "m.json");
    // Both forms consumed; the positional survives in place.
    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "6");
    EXPECT_EQ(take_flag_value(argc, argv, "--absent"), std::nullopt);
}

TEST(cli_test, take_flag_value_equals_form_allows_empty_value) {
    char prog[] = "prog";
    char eq[] = "--journal=";
    char* argv[] = {prog, eq, nullptr};
    int argc = 2;
    EXPECT_EQ(take_flag_value(argc, argv, "--journal"), "");
    EXPECT_EQ(argc, 1);
}

TEST(cli_test, take_flag_value_does_not_match_prefix_flags) {
    char prog[] = "prog";
    char longer[] = "--tracefile";
    char value[] = "x";
    char* argv[] = {prog, longer, value, nullptr};
    int argc = 3;
    EXPECT_EQ(take_flag_value(argc, argv, "--trace"), std::nullopt);
    EXPECT_EQ(argc, 3);
}

TEST(cli_test, take_flag_value_duplicate_last_wins_and_warns) {
    char prog[] = "prog";
    char flag1[] = "--seed";
    char first[] = "1";
    char eq[] = "--seed=2";
    char flag2[] = "--seed";
    char last[] = "3";
    char* argv[] = {prog, flag1, first, eq, flag2, last, nullptr};
    int argc = 6;
    ::testing::internal::CaptureStderr();
    const auto value = take_flag_value(argc, argv, "--seed");
    const std::string warning =
        ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(value, "3");
    EXPECT_EQ(argc, 1); // every occurrence consumed, any form
    EXPECT_NE(warning.find("--seed given 3 times"), std::string::npos);
    EXPECT_NE(warning.find("using last value '3'"), std::string::npos);
}

TEST(cli_test, take_flag_value_single_occurrence_stays_silent) {
    char prog[] = "prog";
    char flag[] = "--seed";
    char value[] = "7";
    char* argv[] = {prog, flag, value, nullptr};
    int argc = 3;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(take_flag_value(argc, argv, "--seed"), "7");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(cli_test, ranged_flag_checks_type_and_range) {
    char prog[] = "/opt/bin/tool";
    char nodes[] = "--nodes";
    char many[] = "500";
    char rate[] = "--rate";
    char nan[] = "nan";
    char* argv[] = {prog, nodes, many, rate, nan, nullptr};
    int argc = 5;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(ranged_flag(argc, argv, "--nodes", 10LL, 1, 100),
              std::nullopt);
    EXPECT_EQ(ranged_flag(argc, argv, "--rate", 0.0, 0.0, 0.9),
              std::nullopt);
    EXPECT_EQ(ranged_flag(argc, argv, "--epochs", 3LL, 0, 9), 3);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "tool: --nodes wants an integer in [1, 100]\n"
              "tool: --rate wants a number in [0, 0.9]\n");
    EXPECT_EQ(argc, 1);
}

TEST(cli_test, take_flag_and_leftover_argument) {
    char prog[] = "prog";
    char bins[] = "--bins";
    char typo[] = "--cohort";
    char* argv[] = {prog, bins, typo, nullptr};
    int argc = 3;
    EXPECT_TRUE(take_flag(argc, argv, "--bins"));
    EXPECT_FALSE(take_flag(argc, argv, "--bins"));
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(leftover_argument(argc, argv, 2));
    EXPECT_TRUE(leftover_argument(argc, argv, 1));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "prog: unknown argument '--cohort'\n");
}

using cli_death_test = ::testing::Test;

TEST(cli_death_test, take_flag_value_exits_on_missing_value) {
    char prog[] = "prog";
    char flag[] = "--trace";
    char* argv[] = {prog, flag, nullptr};
    int argc = 2;
    EXPECT_EXIT((void)take_flag_value(argc, argv, "--trace"),
                ::testing::ExitedWithCode(2), "--trace needs a value");
}

TEST(cli_death_test, int_arg_exits_on_garbage) {
    char prog[] = "prog";
    char bad[] = "48x";
    char* argv[] = {prog, bad, nullptr};
    EXPECT_EXIT((void)int_arg(2, argv, 1, 48, "phases", 1, 100),
                ::testing::ExitedWithCode(2), "invalid phases '48x'");
}

TEST(cli_death_test, int_arg_exits_out_of_range) {
    char prog[] = "prog";
    char huge[] = "1000000";
    char* argv[] = {prog, huge, nullptr};
    EXPECT_EXIT((void)int_arg(2, argv, 1, 48, "phases", 1, 100),
                ::testing::ExitedWithCode(2), "invalid phases");
}

TEST(cli_death_test, double_arg_exits_on_garbage_and_range) {
    char prog[] = "prog";
    char bad[] = "60.5C";
    char* argv[] = {prog, bad, nullptr};
    EXPECT_EXIT((void)double_arg(2, argv, 1, 60.0, "temperature_c", 20.0,
                                 90.0),
                ::testing::ExitedWithCode(2), "invalid temperature_c");
    char cold[] = "-40";
    char* argv2[] = {prog, cold, nullptr};
    EXPECT_EXIT((void)double_arg(2, argv2, 1, 60.0, "temperature_c", 20.0,
                                 90.0),
                ::testing::ExitedWithCode(2), "invalid temperature_c");
}

} // namespace
} // namespace gb
