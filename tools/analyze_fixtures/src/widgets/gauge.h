// Companion header of the gauge.cc own-header-first fixture.
#pragma once
