// n=-1 churn=77 sequence=0
long g0[13];
unsigned short g1[16];
long f(long n) {
    long x = 2;
    long v = 6;
    long t = 0;
    long i = 0;
    long j = 0;
    long k = 0;
    long e = 0;
    char c = 12;
    short s = 9223372036854775807;
    unsigned int w = 1;
    int a0[5];
    int a1[8];
    char* z = "z%ana";
    int* p = a0 + 5;
    int* q = a0 + 3;
    s = (19 + g0[4]) * (p - q);
    t = 8;
    g1[i * 2 % 20] = i;
    *q++ = g0[-1] | z[9223372036854775807];
    a1[-1] = 9;
    t = *p << 57 == q[i]++;
    a0[9223372036854775807] = 12 + (t - a1[10]);
    g0[i] = -2;
    for (i = 0; i < 2; i++) {
    }
}
