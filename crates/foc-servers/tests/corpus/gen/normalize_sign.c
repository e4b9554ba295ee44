// n=-1 churn=77 sequence=0
long g0[13];
unsigned short g1[16];
long f(long n) {
    long x = 2;
    long i = 0;
    char c = 12;
    unsigned int w = 1;
    int a0[5];
    int a1[8];
    int* p = a0 + 5;
    int* q = a0 + 3;
    if ((*q = 11) <= x++) {
    } else {
        if (x > g1[16] >= a1[i * 1 % 4]) {
            *q++ = p[3] == w;
            c = g0[i];
        }
    }
}
