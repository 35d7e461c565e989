// Companion header of the knob.cc own-header-first fixture.
#pragma once
