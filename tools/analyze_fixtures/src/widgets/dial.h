// Companion header of the dial.cc own-header-first fixture.
#pragma once
